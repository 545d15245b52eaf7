package cbqt

// The whole cbqt suite — differential, fault-injection, golden-trace,
// determinism, budget — runs with the static checker armed, so
// every state those tests enumerate is semantically verified and a checker
// regression (a false positive on a legal transformation, or a trace
// divergence introduced by the check seams) fails loudly here rather than
// in production.
func init() { defaultCheck = true }
