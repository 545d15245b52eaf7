package storage

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// TestCrashWriterHelper is the kill-and-recover test's child process: it
// opens the disk engine at $CBQT_CRASH_DIR and commits single-row inserts
// with sequential ids forever, acking each commit on stdout. It only runs
// when re-executed by TestKillAndRecover; as a regular test it is a no-op.
func TestCrashWriterHelper(t *testing.T) {
	dir := os.Getenv("CBQT_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-writer helper: only runs re-executed with CBQT_CRASH_DIR")
	}
	db := diskDB(t, dir)
	if _, err := db.CreateTable(tMeta()); err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	for id := int64(1); ; id++ {
		b := db.NewBatch()
		if err := b.Insert("T", []datum.Datum{
			datum.NewInt(id), datum.NewString("r"), datum.NewFloat(float64(id)), datum.NewBool(id%2 == 0),
		}); err != nil {
			fmt.Println("ERR", err)
			os.Exit(1)
		}
		if _, err := db.Commit(b); err != nil {
			fmt.Println("ERR", err)
			os.Exit(1)
		}
		// The ack is written only after Commit returned, i.e. after the WAL
		// record was fsynced: an acked commit must survive any crash.
		fmt.Fprintf(out, "committed %d\n", id)
		out.Flush()
	}
}

// TestKillAndRecover is the crash-recovery battery: a child process
// commits WAL-logged rows and is SIGKILLed mid-stream with no chance to
// flush or close anything. Reopening the data directory must recover
// every acked commit (write-before-ack: Commit returns only after fsync)
// and the surviving rows must be an unbroken prefix of the id sequence —
// a commit is all-or-nothing, so no holes and no torn half-commits.
func TestKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a child process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashWriterHelper", "-test.v")
	cmd.Env = append(os.Environ(), "CBQT_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Read acks until enough commits landed, then kill hard (SIGKILL: the
	// child gets no signal handler, no deferred close, nothing).
	const minCommits = 50
	lastAcked := int64(0)
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "ERR") {
			t.Fatalf("crash writer failed: %s", line)
		}
		if n, ok := strings.CutPrefix(line, "committed "); ok {
			id, err := strconv.ParseInt(n, 10, 64)
			if err != nil {
				t.Fatalf("bad ack %q", line)
			}
			lastAcked = id
			if lastAcked >= minCommits {
				break
			}
		}
	}
	if lastAcked < minCommits {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("child exited after %d commits, want >= %d", lastAcked, minCommits)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; the kill error state is expected

	// Recover. Every acked commit must be back; the recovered ids must be
	// exactly 1..K for some K >= lastAcked (commits are sequential and
	// atomic, so unacked-but-synced trailing commits are fine, holes and
	// partial rows are not).
	db, err := OpenDiskEngine(dir, catalog.New())
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	defer db.Close()
	view := db.Snapshot().Table("T")
	if view == nil {
		t.Fatal("table T did not survive the crash")
	}
	seen := map[int64]bool{}
	maxID := int64(0)
	for i := range view.Rows {
		if !view.Visible(i) {
			continue
		}
		id := view.Rows[i][0].Int()
		if seen[id] {
			t.Fatalf("row %d recovered twice", id)
		}
		seen[id] = true
		if id > maxID {
			maxID = id
		}
	}
	if maxID < lastAcked {
		t.Fatalf("recovered through id %d, but id %d was acked before the kill", maxID, lastAcked)
	}
	for id := int64(1); id <= maxID; id++ {
		if !seen[id] {
			t.Fatalf("hole in recovered ids: %d missing (max %d)", id, maxID)
		}
	}

	// The recovered engine keeps accepting commits.
	b := db.NewBatch()
	if err := b.Insert("T", []datum.Datum{
		datum.NewInt(maxID + 1), datum.NewString("post"), datum.NewFloat(0), datum.NewBool(false),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit(b); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
}
