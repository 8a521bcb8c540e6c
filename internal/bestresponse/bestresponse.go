// Package bestresponse computes players' best responses under the
// locality model. For MAXNCG, Proposition 2.1 shows the worst-case
// realizable network coincides with the player's view, so the player can
// optimize directly on the view; the optimization itself reduces to a
// constrained MINIMUM DOMINATING SET on powers of the view (§5.3). For
// SUMNCG, Proposition 2.2 additionally forbids strategies that push
// frontier vertices beyond distance k.
//
// Every response rule has exactly one implementation: a method on
// Evaluator (eval.go, descent.go). The Evaluator extracts the player's
// view once into its view.Workspace and scores every candidate deviation
// by incremental, undoable distance relaxation — no clone, no full BFS
// per candidate. Callers hold one Evaluator per goroutine (one per sweep
// worker in package dynamics). The original clone-and-BFS responders are
// kept as test-only executable specifications (reference_test.go,
// large_reference_test.go); the differential tests pin the Evaluator to
// byte-identical responses (same sorted strategies, same epsilon
// tie-breaks) on randomized instances.
package bestresponse

// epsilon guards strict-improvement comparisons against float noise in
// α-weighted costs.
const epsilon = 1e-9

// Response is the outcome of a best-response computation.
type Response struct {
	// Strategy is the proposed σ'_u in global vertex ids (sorted).
	Strategy []int
	// Cost is the player's cost under Strategy, evaluated on her view
	// (building cost + usage within the view).
	Cost float64
	// CurrentCost is the player's cost under her current strategy,
	// evaluated the same way.
	CurrentCost float64
	// Improving reports whether Strategy is strictly better than the
	// current strategy (by more than epsilon).
	Improving bool
}

// SumExhaustiveResult is the outcome of the exhaustive SUMNCG responder.
type SumExhaustiveResult struct {
	Response
	// Feasible is false when the view exceeded maxCandidates and the
	// search was skipped.
	Feasible bool
}
