package analysis

import (
	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// Bin widths used by the paper's figures.
const (
	// Fig3BinWidthSec: application-level histograms, 10 microseconds.
	Fig3BinWidthSec = 10e-6
	// Fig5BinWidthSec: MiniFE per-process histograms, 50 microseconds.
	Fig5BinWidthSec = 50e-6
	// Fig7aBinWidthSec: MiniMD phase-one histogram, 50 microseconds.
	Fig7aBinWidthSec = 50e-6
	// Fig7bcBinWidthSec: MiniMD phase-two histograms, 10 microseconds.
	Fig7bcBinWidthSec = 10e-6
	// Fig9BinWidthSec: MiniQMC per-process histogram, 1 millisecond.
	Fig9BinWidthSec = 1e-3
)

// ApplicationHistogram builds the paper's Figure 3 histogram: all thread
// arrival samples of the dataset, with the given bin width in seconds.
func ApplicationHistogram(d *trace.Dataset, binWidthSec float64) *stats.Histogram {
	return stats.NewHistogram(d.AllSamples(), binWidthSec)
}

// ProcessIterationHistogram builds a Figure 5/7/9-style histogram of a
// single (trial, rank, iteration) thread set.
func ProcessIterationHistogram(d *trace.Dataset, trial, rank, iter int, binWidthSec float64) *stats.Histogram {
	return stats.NewHistogram(d.Block(trial, rank, iter), binWidthSec)
}
