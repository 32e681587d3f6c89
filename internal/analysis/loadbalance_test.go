package analysis

import (
	"math"
	"testing"

	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

func TestLoadBalanceValues(t *testing.T) {
	if lb := LoadBalance([]float64{2, 2, 2}); lb != 1 {
		t.Errorf("balanced LB = %v", lb)
	}
	// mean 2.5 / max 4 = 0.625.
	if lb := LoadBalance([]float64{1, 2, 3, 4}); math.Abs(lb-0.625) > 1e-12 {
		t.Errorf("LB = %v", lb)
	}
	if lb := LoadBalance([]float64{0, 0}); lb != 0 {
		t.Errorf("degenerate LB = %v", lb)
	}
}

// LB and the idle ratio are complementary: LB = 1 - idle ratio.
func TestLoadBalanceIdleRatioIdentity(t *testing.T) {
	xs := []float64{1.2, 3.4, 2.2, 5.1, 4.4}
	_, idle := idleTime(xs, stats.Max(xs))
	if diff := LoadBalance(xs) + idle - 1; math.Abs(diff) > 1e-12 {
		t.Errorf("LB + IdleRatio - 1 = %v", diff)
	}
}

func TestDatasetLoadBalance(t *testing.T) {
	d := trace.NewDataset("lb", 1, 1, 2, 4)
	copy(d.Block(0, 0, 0), []float64{2, 2, 2, 2}) // LB 1
	copy(d.Block(0, 0, 1), []float64{1, 2, 3, 4}) // LB 0.625
	st := DatasetLoadBalance(d)
	if math.Abs(st.Mean-0.8125) > 1e-12 {
		t.Errorf("mean = %v", st.Mean)
	}
	if math.Abs(st.Min-0.625) > 1e-12 {
		t.Errorf("min = %v", st.Min)
	}
	if st.P5 < st.Min || st.P5 > st.Mean+0.5 {
		t.Errorf("p5 = %v", st.P5)
	}
}
