package qtree

import (
	"strings"
	"testing"

	"repro/internal/testkit"
)

func TestBindParamDedupAndOrdinals(t *testing.T) {
	db := testkit.ParamDB()
	q, err := BindSQL("SELECT t.ID FROM t WHERE t.GRP = :g AND t.VAL > :v AND t.ID <> :G", db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	// :g and :G are the same parameter; discovery order is g then v.
	if len(q.Params) != 2 || q.Params[0] != "G" || q.Params[1] != "V" {
		t.Fatalf("params = %v, want [G V]", q.Params)
	}
}

func TestBindPositionalParams(t *testing.T) {
	db := testkit.ParamDB()
	q, err := BindSQL("SELECT t.ID FROM t WHERE t.GRP = ? AND t.VAL > ?", db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Params) != 2 || q.Params[0] != "?1" || q.Params[1] != "?2" {
		t.Fatalf("params = %v, want [?1 ?2]", q.Params)
	}
}

func TestParamSurvivesCloneAndRendersSQL(t *testing.T) {
	db := testkit.ParamDB()
	q, err := BindSQL("SELECT t.ID FROM t WHERE t.GRP = :g", db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := q.Clone()
	if len(c.Params) != 1 || c.Params[0] != "G" {
		t.Fatalf("clone params = %v", c.Params)
	}
	if s := c.SQL(); !strings.Contains(s, ":G") {
		t.Fatalf("clone SQL lost the parameter: %s", s)
	}
	// Canonical (ordinal) rendering uses the slot, not the name, so the
	// cost cache treats differently-named but structurally identical
	// queries alike.
	if k := q.CanonicalKey(q.Root); !strings.Contains(k, ":$0") {
		t.Fatalf("canonical key should render :$0, got %s", k)
	}
}
