package main

import (
	"go/types"
	"strings"
	"testing"
)

// storageFixture is a minimal stand-in for internal/storage's version types:
// the pass matches on (type name, package path suffix), so this compiles
// as repro/internal/storage and exercises every write shape.
const storageFixture = `package storage
type Table struct {
	Rows    []int
	ends    []uint64
	indexes map[string]int
	ts      uint64
}
type Index struct {
	rows []int
}
func buildIndexes() *Table { // allowlisted load-time builder: fine
	t := &Table{indexes: map[string]int{}}
	t.Rows = append(t.Rows, 1)
	return t
}
func bad(t *Table, ix *Index) {
	t.Rows = append(t.Rows, 2) // flagged: field store through pointer
	t.ends[0] = 9              // flagged: element write, shared backing array
	t.indexes["i"] = 1         // flagged: map store
	t.ts++                     // flagged: inc through pointer
	ix.rows = nil              // flagged: Index is a version type too
}
func view(t *Table) uint64 {
	v := *t
	v.ts = 7       // value copy: only the copy mutates, fine
	v.Rows[0] = 42 // flagged: the copy shares the rows backing array
	return v.ts
}
func allowed(t *Table) {
	//lint:allow snapmut load-time rebuild before the version is ever published
	t.Rows = append(t.Rows, 3)
}
`

func TestSnapmut(t *testing.T) {
	diags := findings(t, snapmut, "repro/internal/storage", storageFixture, nil)
	wantN(t, diags, 6)
	for _, d := range diags {
		if d.analyzer != "snapmut" {
			t.Errorf("finding from %q, want snapmut", d.analyzer)
		}
	}
}

func TestSnapmutFiresOutsideStorageToo(t *testing.T) {
	// The allowlist is storage-local: a function named applyOps in another
	// package writing a version field is still a violation.
	_, _, storagePkg, _ := compile(t, "repro/internal/storage", storageFixture, nil)
	deps := map[string]*types.Package{"repro/internal/storage": storagePkg}
	src := `package exec
import "repro/internal/storage"
func applyOps(t *storage.Table) {
	t.Rows = append(t.Rows, 1) // flagged: not storage's applyOps
}
`
	wantN(t, findings(t, snapmut, "repro/internal/exec", src, deps), 1)
}

const ctxFixture = `package server
import "context"
func DialContext(ctx context.Context, addr string) error { return nil }
func Dial(addr string) error { // wrapper with no ctx in scope: fine
	return DialContext(context.Background(), addr)
}
type Cl struct{}
func (c *Cl) Exec(q string) error { return nil }
func (c *Cl) ExecContext(ctx context.Context, q string) error { return nil }
func bad(ctx context.Context, c *Cl) error {
	if err := DialContext(context.Background(), "x"); err != nil { // flagged: fresh root
		return err
	}
	_ = DialContext(context.TODO(), "y") // flagged: TODO is a fresh root too
	return c.Exec("q")                   // flagged: drops ctx, ExecContext exists
}
func good(ctx context.Context, c *Cl) error {
	if err := DialContext(ctx, "x"); err != nil {
		return err
	}
	return c.ExecContext(ctx, "q")
}
func closure(ctx context.Context, c *Cl) {
	f := func() { _ = c.Exec("q") } // flagged: ctx in scope via capture
	f()
}
func allowed(ctx context.Context, c *Cl) error {
	//lint:allow ctxflow fire-and-forget audit write must survive request cancellation
	return c.Exec("q")
}
`

func TestCtxflow(t *testing.T) {
	diags := findings(t, ctxflow, "repro/internal/server", ctxFixture, nil)
	wantN(t, diags, 4)
	for _, d := range diags {
		if d.analyzer != "ctxflow" {
			t.Errorf("finding from %q, want ctxflow", d.analyzer)
		}
	}
	// Outside the serving path the same source is not analyzed.
	outside := strings.Replace(ctxFixture, "package server", "package obsv", 1)
	wantN(t, findings(t, ctxflow, "repro/internal/obsv", outside, nil), 0)
}

const batchFixture = `package exec
type Batch struct {
	Cols [][]int
	Sel  []int
	N    int
}
func (b *Batch) Live(k int) int {
	if b.Sel != nil {
		return b.Sel[k]
	}
	return k
}
func (b *Batch) gather(r int) []int { // allowlisted kernel: fine
	out := make([]int, len(b.Cols))
	for c := range b.Cols {
		out[c] = b.Cols[c][r]
	}
	return out
}
func bad(b *Batch) int {
	total := 0
	for k := 0; k < b.N; k++ {
		total += b.Cols[0][k] // flagged: k never went through Sel
	}
	b.Cols[0][0] = 7 // flagged: writes bypass the vector too
	return total
}
func good(b *Batch) int {
	total := 0
	col := b.Cols[0] // single index fetches the column: fine
	for k := 0; k < b.N; k++ {
		total += col[b.Live(k)]
	}
	return total
}
func allowed(b *Batch) int {
	//lint:allow selvec batch is built locally with a nil Sel
	return b.Cols[0][0]
}
`

func TestSelvec(t *testing.T) {
	diags := findings(t, selvec, "repro/internal/exec", batchFixture, nil)
	wantN(t, diags, 2)
	// Gating: internal/storage double-indexing its own types is fine.
	outside := strings.Replace(batchFixture, "package exec", "package storage", 1)
	wantN(t, findings(t, selvec, "repro/internal/storage", outside, nil), 0)
}

const walFixture = `package storage
type seg struct{}
func (s *seg) Sync() error   { return nil }
func (s *seg) Close() error  { return nil }
func (s *seg) Name() string  { return "" }
type wr struct{ seg *seg }
func (w *wr) rotate() error { return nil }
func bad(w *wr) {
	w.seg.Sync()        // flagged: fsync result dropped
	_ = w.seg.Close()   // flagged: blank-assigned
	defer w.seg.Close() // flagged: deferred without a wrapper
	go w.rotate()       // flagged: goroutine swallows the error
}
func good(w *wr) error {
	if err := w.seg.Sync(); err != nil {
		return err
	}
	_ = w.seg.Name() // not a durability callee
	return w.seg.Close()
}
func allowed(w *wr) {
	//lint:allow errdrop read-side segment; close error has no durability consequence
	w.seg.Close()
}
`

func TestErrdrop(t *testing.T) {
	diags := findings(t, errdrop, "repro/internal/storage", walFixture, nil)
	wantN(t, diags, 4)
	// Gating: the same shapes outside internal/storage are not analyzed.
	outside := strings.Replace(walFixture, "package storage", "package exec", 1)
	wantN(t, findings(t, errdrop, "repro/internal/exec", outside, nil), 0)
}

func TestPassCounters(t *testing.T) {
	fset, files, pkg, info := compile(t, "repro/internal/storage", storageFixture, nil)
	_, counters := analyze(fset, files, pkg, info, "repro/internal/storage", []*Analyzer{snapmut})
	tally := counters["snapmut"]
	if tally == nil {
		t.Fatal("no snapmut tally registered")
	}
	if tally.Reported != 6 || tally.Suppressed != 1 {
		t.Fatalf("snapmut tally = %+v, want 6 reported / 1 suppressed", *tally)
	}
}
