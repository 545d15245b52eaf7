package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// dataSeed is the demo-data seed every cbqtd is started with. The
// benchmark's --seed varies the statements only: all seeds run against the
// same rows, so their results can be compared.
const dataSeed = 1

// cbqtd is one running server child process.
type cbqtd struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	// helloAfter is spawn → first successful hello.
	helloAfter time.Duration

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
	done chan struct{}
}

var servingRE = regexp.MustCompile(`serving \S+ data on (\S+) `)

// startCbqtd spawns the real server binary on a free loopback port and
// returns once a client has completed the hello exchange. dataDir is only
// used (and required) by the disk store.
func startCbqtd(bin, size, store, dataDir string) (*cbqtd, error) {
	args := []string{"-addr", "127.0.0.1:0", "-size", size, "-seed", strconv.Itoa(dataSeed), "-store", store}
	if store == "disk" {
		args = append(args, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &cbqtd{cmd: cmd, done: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
	}()
	select {
	case p.addr = <-addrCh:
	case <-p.done:
		cmd.Wait()
		return nil, fmt.Errorf("cbqtd exited before serving:\n%s", p.stderrTail())
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("cbqtd did not start serving within 60s:\n%s", p.stderrTail())
	}
	c, err := server.Dial(p.addr, nil)
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("first hello: %w", err)
	}
	p.helloAfter = time.Since(p.started)
	c.Close()
	return p, nil
}

func (p *cbqtd) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// peakRSSMB reads the child's high-water resident set from /proc.
func (p *cbqtd) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status of pid %d", p.cmd.Process.Pid)
}

// stop sends SIGTERM (the daemon's graceful drain), waits for the process
// to end, and kills it if the drain hangs. It always reaps the child.
func (p *cbqtd) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already-exited is reported by Wait below
	waited := make(chan error, 1)
	go func() {
		<-p.done // stderr closed: all output read
		waited <- p.cmd.Wait()
	}()
	select {
	case err := <-waited:
		return err
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-waited
		return fmt.Errorf("cbqtd ignored SIGTERM for 15s and was killed")
	}
}
