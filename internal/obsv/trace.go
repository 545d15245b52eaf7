package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// The search-trace event kinds, in the order the CBQT driver emits them:
// one EvHeuristics for the imperative phase, then per rule an EvRule header,
// EvState per transformation state evaluated, and an EvWinner footer, with
// EvQuarantine and EvDegraded interleaved where failures and budget
// exhaustion occur.
const (
	EvHeuristics = "heuristics"
	EvRule       = "rule"
	EvState      = "state"
	EvWinner     = "winner"
	EvQuarantine = "quarantine"
	EvDegraded   = "degraded"
)

// The outcomes of one state evaluation (SearchEvent.Outcome on EvState).
// JSON cannot represent the +Inf cost of an abandoned state, so the outcome
// string carries the classification and Cost is present only for
// OutcomeCosted.
const (
	// OutcomeCosted: the state was fully costed; Cost holds the plan cost.
	OutcomeCosted = "costed"
	// OutcomeCut: abandoned by the §3.4.1 cost cut-off.
	OutcomeCut = "cut"
	// OutcomeInfeasible: the transformation did not apply (or the state
	// exceeded the depth budget; Reason distinguishes).
	OutcomeInfeasible = "infeasible"
	// OutcomeFault: an injected or recovered failure absorbed the state.
	OutcomeFault = "fault"
	// OutcomeBudget: the wall-clock budget expired inside the evaluation.
	OutcomeBudget = "budget"
)

// Winner outcomes (SearchEvent.Outcome on EvWinner). A rule whose search
// faulted is quarantined instead and emits no EvWinner.
const (
	// WinnerApplied: a non-zero state won; the query adopted the tree the
	// search built and checked for it.
	WinnerApplied = "applied"
	// WinnerUntransformed: the zero state won (or none was costed); the
	// query is unchanged.
	WinnerUntransformed = "untransformed"
)

// SearchEvent is one record of the structured CBQT search trace. Events are
// recorded in state enumeration order; Normalize removes the run-dependent
// content (timings and work counters).
type SearchEvent struct {
	// Seq is the event's position in the stream — the per-state sequence
	// key that makes traces comparable across runs.
	Seq int `json:"seq"`
	// Ev is the event kind (Ev* constants).
	Ev string `json:"ev"`
	// Rule is the transformation under search.
	Rule string `json:"rule,omitempty"`
	// Strategy is the state-space search strategy (EvRule only).
	Strategy string `json:"strategy,omitempty"`
	// Objects is the transformation's object count (EvRule only).
	Objects int `json:"objects,omitempty"`
	// State is the mixed-radix state vector as a digit string.
	State string `json:"state,omitempty"`
	// Outcome classifies the event (Outcome* for EvState, Winner* for
	// EvWinner, "ok"/"fault" for EvHeuristics).
	Outcome string `json:"outcome,omitempty"`
	// Cost is the state's plan cost; present only when Outcome is
	// OutcomeCosted.
	Cost float64 `json:"cost,omitempty"`
	// Blocks and CacheHits count the physical-optimizer work of this state.
	// Normalize strips them, so normalized traces pin decisions, not work;
	// the raw trace goldens pin them.
	Blocks    int `json:"blocks,omitempty"`
	CacheHits int `json:"cache_hits,omitempty"`
	// Reason carries detail: the degradation reason (EvDegraded), the
	// failure class (EvQuarantine, OutcomeFault), or the skip cause.
	Reason string `json:"reason,omitempty"`
	// ElapsedUS is the evaluation's wall-clock microseconds; stripped by
	// Normalize.
	ElapsedUS int64 `json:"us,omitempty"`
}

// WriteJSONL writes the events one JSON object per line.
func WriteJSONL(w io.Writer, events []SearchEvent) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSONL renders the events as a JSONL string.
func MarshalJSONL(events []SearchEvent) string {
	var sb strings.Builder
	_ = WriteJSONL(&sb, events)
	return sb.String()
}

// Normalize canonicalizes a trace for comparison across runs: timings and
// per-state work counters are stripped and sequence keys are reassigned
// densely, so a normalized trace pins the search's decisions — states,
// outcomes and costs — and nothing that varies from run to run.
func Normalize(events []SearchEvent) []SearchEvent {
	out := make([]SearchEvent, 0, len(events))
	for _, e := range events {
		e.ElapsedUS = 0
		e.Blocks = 0
		e.CacheHits = 0
		e.Seq = len(out)
		out = append(out, e)
	}
	return out
}

// RenderTree renders the trace as a human-readable search tree, one line
// per event, states indented under their rule.
func RenderTree(events []SearchEvent) string {
	var sb strings.Builder
	sb.WriteString("search\n")
	for _, e := range events {
		switch e.Ev {
		case EvHeuristics:
			fmt.Fprintf(&sb, "├ heuristics  %s\n", e.Outcome)
		case EvRule:
			fmt.Fprintf(&sb, "├ rule %s  strategy=%s objects=%d\n", e.Rule, e.Strategy, e.Objects)
		case EvState:
			fmt.Fprintf(&sb, "│   state %s  %s", e.State, e.Outcome)
			if e.Outcome == OutcomeCosted {
				fmt.Fprintf(&sb, " cost=%.1f", e.Cost)
			}
			if e.Reason != "" {
				fmt.Fprintf(&sb, " (%s)", e.Reason)
			}
			if e.Blocks > 0 || e.CacheHits > 0 {
				fmt.Fprintf(&sb, "  blocks=%d hits=%d", e.Blocks, e.CacheHits)
			}
			if e.ElapsedUS > 0 {
				fmt.Fprintf(&sb, " us=%d", e.ElapsedUS)
			}
			sb.WriteString("\n")
		case EvWinner:
			fmt.Fprintf(&sb, "│   winner %s  %s\n", e.State, e.Outcome)
		case EvQuarantine:
			fmt.Fprintf(&sb, "├ quarantine %s  %s\n", e.Rule, e.Reason)
		case EvDegraded:
			fmt.Fprintf(&sb, "├ degraded  %s\n", e.Reason)
		default:
			fmt.Fprintf(&sb, "├ %s\n", e.Ev)
		}
	}
	return sb.String()
}
