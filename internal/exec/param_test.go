package exec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

func TestRunParamsBinding(t *testing.T) {
	db := testkit.ParamDB()
	q, err := qtree.BindSQL("SELECT t.ID FROM t WHERE t.GRP = :g", db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizer.New(db.Catalog).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Several bind sets through one plan: RunParams late-binds the value,
	// so the (indexed) GRP probe sees a different key each run.
	for grp, want := range map[int64]int{1: 5, 2: 5, 3: 5} {
		r, err := RunParams(context.Background(), db, plan, []datum.Datum{datum.NewInt(grp)})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != want {
			t.Fatalf("grp %d: got %d rows, want %d", grp, len(r.Rows), want)
		}
	}
	// Unbound parameter: a clear execution error, not a panic.
	if _, err := RunParams(context.Background(), db, plan, nil); err == nil ||
		!strings.Contains(err.Error(), "unbound parameter") {
		t.Fatalf("unbound parameter: err = %v", err)
	}
}
