package qtree_test

import (
	"maps"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"repro/internal/qtree"
	"repro/internal/testkit"
)

// TestOuterColsMatchReference pins OuterCols and the canonical keys built on
// it against the walks they replaced (export_test.go). Over every block of
// the bound, heuristic, per-state and optimized trees of the decision
// corpus (corpusTrees):
//   - OuterCols reports the former column sequence minus the set-operation
//     output references (From 0) and the subtree's own items, in order; its
//     from IDs are the former OuterRefs and its distinct (from, ord) pairs
//     the former TIS cache key, each minus From 0;
//   - two blocks have equal keys exactly when their former keys are equal,
//     and a key is its former key with the subtree's own items renumbered
//     in the order the text first names them.
func TestOuterColsMatchReference(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	keyOf := map[string]string{} // former key -> key
	refOf := map[string]string{} // key -> former key
	trees, blocks, correlated := 0, 0, 0
	check := func(where string, q *qtree.Query) {
		t.Helper()
		trees++
		k := q.BlockKeyer()
		q.Root.Walk(func(b *qtree.Block) bool {
			blocks++
			defined := b.Defined()
			var want, got []*qtree.Col
			qtree.RefCols(b, func(c *qtree.Col) {
				if c.From != 0 && !defined[c.From] {
					want = append(want, c)
				}
			})
			b.OuterCols(func(c *qtree.Col) { got = append(got, c) })
			if !slices.Equal(got, want) {
				t.Errorf("%s block %d: OuterCols = %v, reference %v", where, b.ID, got, want)
			}
			if len(got) > 0 {
				correlated++
			}
			ids := map[qtree.FromID]bool{}
			var tis []qtree.RefColID
			for _, c := range got {
				ids[c.From] = true
				if id := (qtree.RefColID{From: c.From, Ord: c.Ord}); !slices.Contains(tis, id) {
					tis = append(tis, id)
				}
			}
			refs := qtree.RefOuterRefs(b)
			delete(refs, 0)
			refTIS := slices.DeleteFunc(qtree.RefOuterColIDs(b), func(id qtree.RefColID) bool { return id.From == 0 })
			if !maps.Equal(ids, refs) || !slices.Equal(tis, refTIS) {
				t.Errorf("%s block %d: outer IDs %v and TIS key %v, reference %v and %v",
					where, b.ID, ids, tis, refs, refTIS)
			}
			ref, key := qtree.RefKey(q, b), k.Key(b)
			if got := renumberLocal(ref); got != key {
				t.Errorf("%s block %d: key\n%q, former key renumbered\n%q", where, b.ID, key, got)
			}
			if prev, ok := keyOf[ref]; ok && prev != key {
				t.Errorf("%s block %d: former key %q maps to both\n%q and\n%q", where, b.ID, ref, prev, key)
			}
			if prev, ok := refOf[key]; ok && prev != ref {
				t.Errorf("%s block %d: key %q maps to both former\n%q and\n%q", where, b.ID, key, prev, ref)
			}
			keyOf[ref], refOf[key] = key, ref
			return true
		})
	}
	corpusTrees(t, db, check)
	if trees < 200 || correlated == 0 || len(keyOf) < 100 {
		t.Fatalf("checked %d trees, %d blocks (%d correlated), %d distinct keys; the sweep is not exercising the walks",
			trees, blocks, correlated, len(keyOf))
	}
	t.Logf("%d trees, %d blocks (%d correlated), %d distinct keys", trees, blocks, correlated, len(keyOf))
}

// localName matches a canonical key's name of a keyed subtree's own item,
// t<n>; an outer item's name is x:<table>~<alias>, and "~" keeps an alias
// spelt t<n> from matching.
var localName = regexp.MustCompile(`(^|[^~\w])t(\d+)\b`)

// renumberLocal renames the local items of a canonical key t0, t1, ... in
// the order the text first names them.
func renumberLocal(key string) string {
	seen := map[string]string{}
	return localName.ReplaceAllStringFunc(key, func(m string) string {
		sub := localName.FindStringSubmatch(m)
		name, ok := seen[sub[2]]
		if !ok {
			name = "t" + strconv.Itoa(len(seen))
			seen[sub[2]] = name
		}
		return sub[1] + name
	})
}
