package cbqt

import (
	"repro/internal/datum"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/qtree"
)

// Metric names the decision store publishes. They are distinct from the
// plan cache's "plancache." names, which read the plan cache alone.
const (
	// MetricDecisionHits and MetricDecisionMisses count the optimizations
	// that found, or did not find, an entry for their key.
	MetricDecisionHits   = "cbqt.decisions.hits"
	MetricDecisionMisses = "cbqt.decisions.misses"
	// MetricDecisionFallbacks counts the rules that ran the full search
	// although their optimization found an entry: the entry holds no
	// decision for the rule, or one for another object count.
	MetricDecisionFallbacks = "cbqt.decisions.fallbacks"
	// MetricDecisionEntries gauges the entries held.
	MetricDecisionEntries = "cbqt.decisions.entries"
	// MetricDecisionEvictions and MetricDecisionInvalidations count the
	// entries dropped for the bound and for a new catalog version.
	MetricDecisionEvictions     = "cbqt.decisions.evictions"
	MetricDecisionInvalidations = "cbqt.decisions.invalidations"
)

// DecisionStore remembers, per statement template, the state each
// cost-based rule's search chose, so that a later text of the same
// template, with literals that estimate alike, costs the remembered state
// against the untransformed one instead of searching the state space again
// (ruleSearch.reuse). Entries are keyed like plans in the plan cache
// (NewDecisionKey) and held in a second plancache.Cache, which bounds them
// in entries and sweeps them by catalog version; the store is safe for
// concurrent optimizations.
type DecisionStore struct {
	cache     *plancache.Cache
	fallbacks *obsv.Counter
}

// NewDecisionStore creates a store bounded to maxEntries entries
// (plancache.DefaultMaxEntries when <= 0), publishing its counters to reg
// (which may be nil).
func NewDecisionStore(maxEntries int, reg *obsv.Registry) *DecisionStore {
	return &DecisionStore{
		cache: plancache.NewWith(maxEntries, plancache.Metrics{
			Hits:          reg.Counter(MetricDecisionHits),
			Misses:        reg.Counter(MetricDecisionMisses),
			Evictions:     reg.Counter(MetricDecisionEvictions),
			Invalidations: reg.Counter(MetricDecisionInvalidations),
			Entries:       reg.Gauge(MetricDecisionEntries),
		}),
		fallbacks: reg.Counter(MetricDecisionFallbacks),
	}
}

// Invalidate drops every entry recorded under a catalog version below
// version, as plancache.Cache.Invalidate drops plans, and returns how many
// it dropped.
func (d *DecisionStore) Invalidate(version int64) int { return d.cache.Invalidate(version) }

// Len counts the entries held.
func (d *DecisionStore) Len() int { return d.cache.Len() }

// NewDecisionKey is the store key of the statement whose text has template
// tmpl (plancache.Template) and is bound as q: the template, the
// selectivity-bucket vector of
// q's value predicates (optimizer.ValuePreds) estimated for binds, the
// strategy fingerprint and the catalog version. Texts that differ only in
// literals whose estimates share buckets, or that no estimate reads, share
// a key. A statement that compares a column with a value outside its
// listed value predicates, or has more of them than a vector holds, gets
// the zero Key, which the optimizer takes as no store: its key could not
// tell its literals apart. Call it on the bound tree, before Optimize.
func NewDecisionKey(tmpl string, q *qtree.Query, strategy string, binds []datum.Datum) plancache.Key {
	preds, all := optimizer.ValuePreds(q)
	buckets, ok := optimizer.Bucketize(preds, binds)
	if !all || !ok {
		return plancache.Key{}
	}
	return plancache.Key{SQL: tmpl, Strategy: strategy, Version: q.Catalog.Version(), Buckets: buckets}
}

// ruleDecision is what one cost-based rule's full search decided for one
// key: the number of objects its Find returned and the winning state.
type ruleDecision struct {
	rule    string
	objects int
	state   state
}

// decisions is one store entry, in rule order. Entries are shared by
// concurrent optimizations and never modified once stored.
type decisions []ruleDecision

func (ds decisions) find(rule string) (ruleDecision, bool) {
	for _, d := range ds {
		if d.rule == rule {
			return d, true
		}
	}
	return ruleDecision{}, false
}

// lookup returns the entry under k, counting a hit or a miss.
func (d *DecisionStore) lookup(k plancache.Key) (decisions, bool) {
	v, ok := d.cache.Get(k)
	if !ok {
		return nil, false
	}
	ds, ok := v.(decisions)
	return ds, ok
}
