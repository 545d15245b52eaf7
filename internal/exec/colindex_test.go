package exec

import (
	"math/rand"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/qtree"
)

// randomSchema builds a schema the way operators expose them: runs of
// consecutive ordinals of one from item, with gaps between runs, from items
// interleaved, and now and then a ColID that already appeared (the same
// column projected twice, or a join whose sides share a from item).
func randomSchema(rng *rand.Rand) []optimizer.ColID {
	var cols []optimizer.ColID
	for runs := 1 + rng.Intn(6); runs > 0; runs-- {
		if len(cols) > 0 && rng.Intn(5) == 0 {
			cols = append(cols, cols[rng.Intn(len(cols))])
			continue
		}
		from := qtree.FromID(1 + rng.Intn(4))
		ord := rng.Intn(8)
		for n := 1 + rng.Intn(5); n > 0; n-- {
			cols = append(cols, optimizer.ColID{From: from, Ord: ord})
			ord++
			if rng.Intn(4) == 0 {
				ord += 1 + rng.Intn(3) // a gap: the next column starts a new run
			}
		}
	}
	return cols
}

// TestColIndexMatchesMap checks that the run-encoded column index resolves
// every ColID, present or absent, exactly as the ColID -> slot map it
// replaced would: a map filled in schema order, so a repeated ColID keeps
// its last slot.
func TestColIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		schema := randomSchema(rng)
		want := make(map[optimizer.ColID]int, len(schema))
		for i, c := range schema {
			want[c] = i
		}
		idx := newColIndex(schema)
		if len(idx) > len(schema) {
			t.Fatalf("%d runs for %d columns", len(idx), len(schema))
		}
		for from := qtree.FromID(0); from <= 5; from++ {
			for ord := -2; ord <= 20; ord++ {
				id := optimizer.ColID{From: from, Ord: ord}
				got, ok := idx.find(id)
				w, wok := want[id]
				if ok != wok || ok && got != w {
					t.Fatalf("schema %v: find(%v) = %d, %v; map gives %d, %v", schema, id, got, ok, w, wok)
				}
			}
		}
	}
}

// TestColIndexRuns pins the encoding: a scan's columns and a join of two
// scans are one run per from item.
func TestColIndexRuns(t *testing.T) {
	scan := func(from qtree.FromID, n int) []optimizer.ColID {
		cols := make([]optimizer.ColID, n)
		for i := range cols {
			cols[i] = optimizer.ColID{From: from, Ord: i}
		}
		return cols
	}
	if n := len(newColIndex(scan(1, 8))); n != 1 {
		t.Fatalf("scan: %d runs, want 1", n)
	}
	if n := len(newColIndex(append(scan(1, 8), scan(2, 5)...))); n != 2 {
		t.Fatalf("join: %d runs, want 2", n)
	}
	if n := len(newColIndex(nil)); n != 0 {
		t.Fatalf("empty schema: %d runs", n)
	}
}
