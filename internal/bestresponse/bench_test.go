package bestresponse

import (
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/gen"
)

func benchState(n int) *game.State {
	rng := rand.New(rand.NewSource(1))
	return game.FromGraphRandomOwners(gen.RandomTree(n, rng), rng)
}

// BenchmarkMaxBestResponseLocal measures the §5.3 reduction at a small
// view radius — the common case inside locality dynamics.
func BenchmarkMaxBestResponseLocal(b *testing.B) {
	e := NewEvaluator()
	s := benchState(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MaxBestResponse(s, i%s.N(), 3, 2)
	}
}

// BenchmarkMaxBestResponseFullKnowledge measures the k → ∞ case (the
// classical game), the regime the incumbent-capped solver was built for.
func BenchmarkMaxBestResponseFullKnowledge(b *testing.B) {
	e := NewEvaluator()
	s := benchState(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MaxBestResponse(s, i%s.N(), 1000, 2)
	}
}

// BenchmarkMaxGreedyResponse is the better-response ablation: single
// moves only, no dominating-set machinery.
func BenchmarkMaxGreedyResponse(b *testing.B) {
	e := NewEvaluator()
	s := benchState(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MaxGreedyResponse(s, i%s.N(), 3, 2)
	}
}

func BenchmarkSumDelta(b *testing.B) {
	e := NewEvaluator()
	s := benchState(100)
	strategy := []int{1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SumDelta(s, 0, 3, 2, strategy)
	}
}

func BenchmarkSumGreedyResponse(b *testing.B) {
	e := NewEvaluator()
	s := benchState(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SumGreedyResponse(s, i%s.N(), 2, 2)
	}
}
