package chaosnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/testkit/leakcheck"
)

// echoServer is a plain TCP echo peer for proxy tests. Close severs every
// accepted connection so relay goroutines drain.
type echoServer struct {
	l  net.Listener
	mu sync.Mutex
	cs []net.Conn
	wg sync.WaitGroup
}

func startEcho(t *testing.T) *echoServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := &echoServer{l: l}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.cs = append(e.cs, c)
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()
	t.Cleanup(e.close)
	return e
}

func (e *echoServer) close() {
	e.l.Close()
	e.mu.Lock()
	for _, c := range e.cs {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

func startProxy(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// roundTrip writes msg and reads back exactly len(msg) bytes.
func roundTrip(c net.Conn, msg []byte) ([]byte, error) {
	if _, err := c.Write(msg); err != nil {
		return nil, err
	}
	got := make([]byte, len(msg))
	_, err := io.ReadFull(c, got)
	return got, err
}

func TestCleanRelay(t *testing.T) {
	leakcheck.Check(t)
	echo := startEcho(t)
	p := startProxy(t, Config{Target: echo.l.Addr().String()}) // FaultEvery 0: clean

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := bytes.Repeat([]byte("relay"), 2000)
	got, err := roundTrip(c, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("clean relay corrupted the stream")
	}
	if len(p.Events()) != 0 {
		t.Fatalf("clean relay fired faults: %v", p.Events())
	}
	if p.Conns() != 1 {
		t.Fatalf("conns = %d, want 1", p.Conns())
	}
}

// TestPlanDeterministic pins the heart of the harness: the fault schedule
// is a pure function of seed and accept index.
func TestPlanDeterministic(t *testing.T) {
	mk := func(seed int64) *Proxy {
		return &Proxy{cfg: Config{Seed: seed, FaultEvery: 2, Kinds: AllKinds(), MaxFaultBytes: 4096}}
	}
	a, b, c := mk(7), mk(7), mk(8)
	var differ bool
	for idx := 0; idx < 200; idx++ {
		pa, pb, pc := a.planFor(idx), b.planFor(idx), c.planFor(idx)
		if (idx+1)%2 != 0 {
			if pa != nil {
				t.Fatalf("conn %d: faulted off-schedule", idx)
			}
			continue
		}
		if pa == nil || pb == nil {
			t.Fatalf("conn %d: scheduled fault missing", idx)
		}
		if *pa != *pb {
			t.Fatalf("conn %d: same seed, different plans: %+v vs %+v", idx, pa, pb)
		}
		if pc == nil || *pa != *pc {
			differ = true
		}
	}
	if !differ {
		t.Fatal("different seeds produced identical schedules")
	}
}

// resetPlan builds a proxy whose every connection suffers the given kind at
// byte offset 0 (MaxFaultBytes 1 forces offset 0).
func faultAll(t *testing.T, target string, kind Kind, extra Config) *Proxy {
	t.Helper()
	cfg := extra
	cfg.Target = target
	cfg.Seed = 1
	cfg.FaultEvery = 1
	cfg.Kinds = []Kind{kind}
	cfg.MaxFaultBytes = 1
	return startProxy(t, cfg)
}

func TestResetAtAccept(t *testing.T) {
	leakcheck.Check(t)
	echo := startEcho(t)
	reg := obsv.NewRegistry()
	p := faultAll(t, echo.l.Addr().String(), KindReset, Config{Registry: reg})

	// The connection dies before any byte crosses. The RST may land while
	// the dial is still completing (a failed dial) or just after (a failed
	// round trip) — either way no data moves.
	if c, err := net.Dial("tcp", p.Addr()); err == nil {
		defer c.Close()
		c.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := roundTrip(c, []byte("doomed")); err == nil {
			t.Fatal("reset connection completed a round trip")
		}
	}
	ev := p.Events()
	if len(ev) != 1 || ev[0].Kind != KindReset || ev[0].Dir != "accept" {
		t.Fatalf("events = %v, want one accept reset", ev)
	}
	if reg.CounterValue(MetricFaults) != 1 || reg.CounterValue(MetricKindPrefix+"reset") != 1 {
		t.Fatalf("fault counters not published: %v", reg.Snapshot().Counters)
	}
}

func TestTruncateCutsTheStream(t *testing.T) {
	leakcheck.Check(t)
	echo := startEcho(t)
	p := faultAll(t, echo.l.Addr().String(), KindTruncate, Config{})

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Second))
	msg := bytes.Repeat([]byte("x"), 4096)
	c.Write(msg)
	// Offset 0 truncation: nothing (or at most the pre-offset bytes) comes
	// back before a clean close.
	n, _ := io.Copy(io.Discard, c)
	if n >= int64(len(msg)) {
		t.Fatalf("truncated stream delivered all %d bytes", n)
	}
	ev := p.Events()
	if len(ev) != 1 || ev[0].Kind != KindTruncate {
		t.Fatalf("events = %v, want one truncate", ev)
	}
}

func TestDelaySpikesLatency(t *testing.T) {
	leakcheck.Check(t)
	echo := startEcho(t)
	const spike = 150 * time.Millisecond
	p := faultAll(t, echo.l.Addr().String(), KindDelay, Config{Delay: spike})

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	got, err := roundTrip(c, []byte("slow boat"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "slow boat" {
		t.Fatal("delay fault corrupted the stream")
	}
	if d := time.Since(start); d < spike {
		t.Fatalf("round trip took %v, want >= %v spike", d, spike)
	}
	// One spike only: the second round trip is fast.
	start = time.Now()
	if _, err := roundTrip(c, []byte("fast boat")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= spike {
		t.Fatalf("second round trip took %v; the spike must fire once", d)
	}
	ev := p.Events()
	if len(ev) != 1 || ev[0].Kind != KindDelay {
		t.Fatalf("events = %v, want one delay", ev)
	}
}

func TestBlackholeStallsUntilClose(t *testing.T) {
	leakcheck.Check(t)
	echo := startEcho(t)
	p := faultAll(t, echo.l.Addr().String(), KindBlackhole, Config{})

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	// Whichever direction is blackholed, the echo never arrives: the read
	// must hit its own deadline, not return data.
	c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 64)
	if n, err := c.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read through a blackhole returned (%d, %v), want deadline", n, err)
	}
	ev := p.Events()
	if len(ev) != 1 || ev[0].Kind != KindBlackhole {
		t.Fatalf("events = %v, want one blackhole", ev)
	}
	// Close must sever the blackholed relay and drain its goroutines —
	// leakcheck.Check enforces the drain.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnderLoad closes the proxy while connections are mid-flight and
// relies on leakcheck.Check to prove no relay goroutine survives.
func TestCloseUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	echo := startEcho(t)
	p := startProxy(t, Config{Target: echo.l.Addr().String(), Seed: 3, FaultEvery: 2})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", p.Addr())
			if err != nil {
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(2 * time.Second))
			for j := 0; j < 50; j++ {
				if _, err := roundTrip(c, []byte("under load")); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
