package analysis_test

// A differential oracle for the exact analysis path: the reference
// implementations below are the straightforward formulations the tuned
// code replaced — math.Pow central moments, a sort.Float64s median and
// IQR per sample set, a freshly allocated IterationSamples slice per
// application iteration, and the normality battery run per block with
// per-test sorting. Every tuned output must equal its reference bit for
// bit.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/network"
	"earlybird/internal/partcomm"
	"earlybird/internal/stats"
	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

func oracleReclaimableTime(xs []float64) float64 {
	max := stats.Max(xs)
	sum := 0.0
	for _, x := range xs {
		sum += max - x
	}
	return sum
}

func oracleIdleRatio(xs []float64) float64 {
	max := stats.Max(xs)
	if max <= 0 {
		return 0
	}
	return oracleReclaimableTime(xs) / (max * float64(len(xs)))
}

// eachBlock calls fn for every process iteration of d in (trial, rank,
// iteration) order.
func eachBlock(d *trace.Dataset, fn func(trial, rank, iter int, xs []float64)) {
	for cur := d.Cursor(); cur.Next(); {
		b := cur.Block()
		fn(b.Trial, b.Rank, b.Iter, b.Times)
	}
}

func oracleMetrics(d *trace.Dataset, laggardThreshold float64, fromIter, toIter int) analysis.AppMetrics {
	m := analysis.AppMetrics{App: d.App}
	nProc := 0
	medianSum, reclSum, ratioSum := 0.0, 0.0, 0.0
	laggards := 0
	eachBlock(d, func(trial, rank, iter int, xs []float64) {
		if iter < fromIter || iter >= toIter {
			return
		}
		nProc++
		med := stats.Median(xs)
		medianSum += med
		reclSum += oracleReclaimableTime(xs)
		ratioSum += oracleIdleRatio(xs)
		if stats.Max(xs)-med > laggardThreshold {
			laggards++
		}
	})
	if nProc > 0 {
		m.MeanMedianSec = medianSum / float64(nProc)
		m.LaggardFraction = float64(laggards) / float64(nProc)
		m.AvgReclaimableProcSec = reclSum / float64(nProc)
		m.IdleRatioProc = ratioSum / float64(nProc)
	}
	nIter := 0
	reclAppSum, ratioAppSum, iqrSum := 0.0, 0.0, 0.0
	iqrMax := 0.0
	for i := fromIter; i < toIter; i++ {
		xs := d.IterationSamples(i)
		nIter++
		reclAppSum += oracleReclaimableTime(xs)
		ratioAppSum += oracleIdleRatio(xs)
		iqr := stats.IQR(xs)
		iqrSum += iqr
		if iqr > iqrMax {
			iqrMax = iqr
		}
	}
	if nIter > 0 {
		m.AvgReclaimableAppIterSec = reclAppSum / float64(nIter)
		m.IdleRatioAppIter = ratioAppSum / float64(nIter)
		m.IQRMeanSec = iqrSum / float64(nIter)
		m.IQRMaxSec = iqrMax
	}
	return m
}

func oracleLaggards(d *trace.Dataset, threshold float64, fromIter, toIter int) analysis.LaggardStats {
	var st analysis.LaggardStats
	magSum := 0.0
	eachBlock(d, func(trial, rank, iter int, xs []float64) {
		if iter < fromIter || iter >= toIter {
			return
		}
		st.Total++
		if mag := stats.Max(xs) - stats.Median(xs); mag > threshold {
			st.WithLaggard++
			magSum += mag
		}
	})
	if st.Total > 0 {
		st.Fraction = float64(st.WithLaggard) / float64(st.Total)
	}
	if st.WithLaggard > 0 {
		st.MeanMagnitudeSec = magSum / float64(st.WithLaggard)
	}
	return st
}

func oracleHasLaggard(xs []float64, threshold float64) bool {
	return stats.Max(xs)-stats.Median(xs) > threshold
}

func oracleExampleIterations(d *trace.Dataset, threshold float64, fromIter, toIter int) [2][]int {
	var out [2][]int
	eachBlock(d, func(trial, rank, iter int, xs []float64) {
		if iter < fromIter || iter >= toIter {
			return
		}
		k := 1
		if oracleHasLaggard(xs, threshold) {
			k = 0
		}
		if out[k] == nil {
			out[k] = []int{trial, rank, iter}
		}
	})
	return out
}

// powMoment is the k-th central moment summed with math.Pow.
func powMoment(xs []float64, k int) float64 {
	m := stats.Mean(xs)
	sum := 0.0
	for _, x := range xs {
		sum += math.Pow(x-m, float64(k))
	}
	return sum / float64(len(xs))
}

// oracleDAgostinoK2 is D'Agostino's K² with every moment recomputed by
// powMoment, as each transformation once did for itself.
func oracleDAgostinoK2(xs []float64, alpha float64) (normality.Result, error) {
	if len(xs) < 20 {
		return normality.Result{}, normality.ErrSampleTooSmall
	}
	if stats.Min(xs) == stats.Max(xs) {
		return normality.Result{}, normality.ErrConstantSample
	}
	n := float64(len(xs))

	g1 := powMoment(xs, 3) / math.Pow(powMoment(xs, 2), 1.5)
	y := g1 * math.Sqrt((n+1)*(n+3)/(6*(n-2)))
	beta2 := 3 * (n*n + 27*n - 70) * (n + 1) * (n + 3) /
		((n - 2) * (n + 5) * (n + 7) * (n + 9))
	w2 := -1 + math.Sqrt(2*(beta2-1))
	delta := 1 / math.Sqrt(math.Log(math.Sqrt(w2)))
	a := math.Sqrt(2 / (w2 - 1))
	z1 := 0.0
	if y != 0 {
		z1 = delta * math.Log(y/a+math.Sqrt((y/a)*(y/a)+1))
	}

	m2 := powMoment(xs, 2)
	b2 := powMoment(xs, 4) / (m2 * m2)
	meanB2 := 3 * (n - 1) / (n + 1)
	varB2 := 24 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1) * (n + 3) * (n + 5))
	x := (b2 - meanB2) / math.Sqrt(varB2)
	sqrtBeta1 := 6 * (n*n - 5*n + 2) / ((n + 7) * (n + 9)) *
		math.Sqrt(6*(n+3)*(n+5)/(n*(n-2)*(n-3)))
	A := 6 + 8/sqrtBeta1*(2/sqrtBeta1+math.Sqrt(1+4/(sqrtBeta1*sqrtBeta1)))
	term := math.Cbrt((1 - 2/A) / (1 + x*math.Sqrt(2/(A-4))))
	z2 := ((1 - 2/(9*A)) - term) / math.Sqrt(2/(9*A))

	k2 := z1*z1 + z2*z2
	p := stats.ChiSquaredSF(k2, 2)
	return normality.Result{
		Test:         normality.DAgostino,
		Statistic:    k2,
		PValue:       p,
		RejectNormal: p < alpha,
		N:            len(xs),
	}, nil
}

// oracleBattery runs each test through its own entry point, each
// sorting its own copy; a test that cannot run counts as a rejection.
func oracleBattery(xs []float64, alpha float64) [3]normality.Result {
	tests := [3]func([]float64, float64) (normality.Result, error){
		normality.DAgostino:       oracleDAgostinoK2,
		normality.ShapiroWilk:     normality.ShapiroWilkTest,
		normality.AndersonDarling: normality.AndersonDarlingTest,
	}
	var out [3]normality.Result
	for _, t := range normality.Tests {
		r, err := tests[t](xs, alpha)
		if err != nil {
			r = normality.Result{Test: t, RejectNormal: true, N: len(xs)}
		}
		out[t] = r
	}
	return out
}

func oracleTable1Row(d *trace.Dataset, alpha float64) analysis.Table1 {
	t1 := analysis.Table1{App: d.App}
	var passed [3]int
	total := 0
	eachBlock(d, func(trial, rank, iter int, xs []float64) {
		total++
		res := oracleBattery(xs, alpha)
		for _, t := range normality.Tests {
			if res[t].Passed() {
				passed[t]++
			}
		}
	})
	for _, t := range normality.Tests {
		if total > 0 {
			t1.PassRates[t] = float64(passed[t]) / float64(total)
		}
	}
	return t1
}

func oracleFeasibility(d *trace.Dataset, laggardThreshold float64, bytesPerPart int, fabric network.Fabric, binTimeoutSec float64) core.Assessment {
	m := oracleMetrics(d, laggardThreshold, 0, d.Iterations)
	effThreshold := laggardThreshold
	if t := 3 * m.IQRMeanSec; t > effThreshold {
		effThreshold = t
	}
	a := core.Assessment{
		App:                 d.App,
		PotentialOverlapSec: m.AvgReclaimableProcSec / float64(d.Threads),
		LaggardFraction:     oracleLaggards(d, effThreshold, 0, d.Iterations).Fraction,
		IQRToMedian:         m.IQRToMedian(),
	}
	a.Results = partcomm.EvaluateStream(d.Cursor(), bytesPerPart, fabric, []partcomm.Strategy{
		partcomm.Bulk{}, partcomm.FineGrained{}, partcomm.Binned{TimeoutSec: binTimeoutSec},
	})
	a.Recommendation = core.Classify(a.IQRToMedian, a.LaggardFraction)
	return a
}

// bitEqual reports whether a and b are equal with every float compared
// by its IEEE-754 bits (so NaN equals NaN and -0 differs from +0).
func bitEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitEqual(a.Elem(), b.Elem())
	default:
		return a.Equal(b)
	}
}

func assertBitEqual[T any](t *testing.T, what string, got, want T) {
	t.Helper()
	if !bitEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Errorf("%s:\n got  %+v\n want %+v", what, got, want)
	}
}

// TestExactAnalysisMatchesOracle checks the tuned exact path against the
// reference implementations on every app under every rebalancing
// policy, three seeds each, over full and partial iteration ranges and
// two laggard thresholds.
func TestExactAnalysisMatchesOracle(t *testing.T) {
	policies := []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}, {Policy: dlb.PolicyDROM}}
	const alpha = normality.DefaultAlpha
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		model, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range policies {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", app, policy.Name(), seed)
				cfg := cluster.Config{Trials: 2, Ranks: 4, Iterations: 80, Threads: 48, Seed: seed}
				d, err := cluster.RunColumnarDLB(model, cfg, policy, 0)
				if err != nil {
					t.Fatal(err)
				}
				n := d.Iterations
				for _, thr := range []float64{1e-3, 3e-4} {
					for _, r := range [][2]int{{0, n}, {0, 40}, {40, n}} {
						what := fmt.Sprintf("%s thr=%g [%d,%d)", name, thr, r[0], r[1])
						assertBitEqual(t, what+" metrics",
							analysis.ComputeMetricsInRange(d, thr, r[0], r[1]), oracleMetrics(d, thr, r[0], r[1]))
						assertBitEqual(t, what+" laggards",
							analysis.LaggardsInRange(d, thr, r[0], r[1]), oracleLaggards(d, thr, r[0], r[1]))
						with, without := analysis.FindExampleIterations(d, thr, r[0], r[1])
						assertBitEqual(t, what+" example iterations",
							[2][]int{with, without}, oracleExampleIterations(d, thr, r[0], r[1]))
					}
					study, err := core.FromDatasetWith(d, core.Options{Policy: core.PolicySpec{LaggardThresholdSec: thr}})
					if err != nil {
						t.Fatal(err)
					}
					// Metrics first, as the service does: Feasibility reuses it.
					assertBitEqual(t, fmt.Sprintf("%s thr=%g study metrics", name, thr),
						study.Metrics(), oracleMetrics(d, thr, 0, n))
					assertBitEqual(t, fmt.Sprintf("%s thr=%g assessment", name, thr),
						study.Feasibility(1<<20, network.OmniPath(), 1e-3),
						oracleFeasibility(d, thr, 1<<20, network.OmniPath(), 1e-3))

					tl := analysis.NewLaggardTimeline(d, thr)
					counts := make([]int, n)
					eachBlock(d, func(_, _, iter int, xs []float64) {
						if oracleHasLaggard(xs, thr) {
							counts[iter]++
						}
					})
					assertBitEqual(t, fmt.Sprintf("%s thr=%g timeline", name, thr), tl.Counts, counts)
				}
				assertBitEqual(t, name+" table1", analysis.Table1Row(d, alpha), oracleTable1Row(d, alpha))

				mismatches := 0
				eachBlock(d, func(_, _, _ int, xs []float64) {
					got, err1 := normality.DAgostinoK2(xs, alpha)
					want, err2 := oracleDAgostinoK2(xs, alpha)
					if err1 != err2 || !bitEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
						mismatches++
					}
				})
				if mismatches > 0 {
					t.Errorf("%s: D'Agostino differs from the Pow-moment oracle on %d blocks", name, mismatches)
				}
			}
		}
	}
}
