// Package stats implements the descriptive statistics, histogram and
// distribution machinery used throughout the thread-timing study, in two
// complementary forms.
//
// Exact, materialised: sample moments, percentiles and inter-quartile
// ranges (Figures 4, 6 and 8 of the paper), fixed-width histograms
// (Figures 3, 5, 7 and 9), the empirical CDF, and the standard normal
// distribution functions required by the normality tests in the
// stats/normality subpackage. All functions operate on float64 slices
// and, unless stated otherwise, do not mutate their input.
//
// Streaming: one-pass, constant-memory, mergeable accumulators for
// studies too large to materialise — Moments (first four central moments
// plus min/max, Welford/Pébay updates, exact up to floating-point
// rounding) and QuantileSketch (a t-digest-style percentile estimator
// with a documented rank-error bound). Both merge, so a parallel fill
// keeps one accumulator per worker and combines at the end; together
// they back earlybird.StreamStudy's application summary, and the sketch
// alone the iteration IQR estimates of every streamed metrics row.
package stats
