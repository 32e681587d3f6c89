package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Dataset holds the compute times of a full study of one application:
// Trials x Ranks x Iterations x Threads, in seconds. With the paper's
// configuration (10 trials, 8 ranks, 200 iterations, 48 threads) this is
// the 768000-sample body analysed in Section 4.
//
// The samples form a dense relation over five logical columns — trial,
// rank, iteration, thread, compute_seconds. Because the geometry is
// rectangular, the four index columns are affine functions of the row
// number and never need to be materialised: the dataset keeps the one
// compute-time column flat in (trial, rank, iteration, thread) order. At
// the paper's geometry this is one 768000-element float64 column (6 MiB)
// with zero pointer overhead. Readers take one process iteration at a
// time through Block or a Cursor, each a zero-copy view of the column.
//
// A Dataset comes from a Sink (the fill), from NewDataset (zeroed, for
// callers that fill it in place through Block) or from ReadJSON/ReadCSV.
// Once handed to a reader it must be treated as read-only.
type Dataset struct {
	App        string
	Trials     int
	Ranks      int
	Iterations int
	Threads    int

	// times is the compute-time column in (trial, rank, iteration,
	// thread) order.
	times []float64
	// fp is the fingerprint a Sink accumulated during the fill; hasFP
	// reports whether it is set.
	fp    uint64
	hasFP bool
}

// NewDataset allocates a zeroed dataset with the given geometry. Callers
// fill it in place through Block (or SetFromRecorder) before any reader
// sees it. It panics on a non-positive or overflowing geometry.
func NewDataset(app string, trials, ranks, iterations, threads int) *Dataset {
	n, err := sampleCount(trials, ranks, iterations, threads)
	if err != nil {
		panic(err.Error())
	}
	return &Dataset{
		App:        app,
		Trials:     trials,
		Ranks:      ranks,
		Iterations: iterations,
		Threads:    threads,
		times:      make([]float64, n),
	}
}

// sampleCount returns trials x ranks x iterations x threads, or an error
// when a dimension is not positive or the product overflows int.
func sampleCount(trials, ranks, iterations, threads int) (int, error) {
	n := 1
	for _, x := range [...]int{trials, ranks, iterations, threads} {
		if x < 1 {
			return 0, fmt.Errorf("trace: geometry %dx%dx%dx%d must be positive", trials, ranks, iterations, threads)
		}
		if n > math.MaxInt/x {
			return 0, fmt.Errorf("trace: geometry %dx%dx%dx%d overflows the sample count", trials, ranks, iterations, threads)
		}
		n *= x
	}
	return n, nil
}

// NumSamples returns the total number of thread-arrival samples.
func (d *Dataset) NumSamples() int { return len(d.times) }

// NumProcessIterations returns trials x ranks x iterations (16000 at the
// default geometry — the population of Table 1).
func (d *Dataset) NumProcessIterations() int {
	return d.Trials * d.Ranks * d.Iterations
}

// Block returns the thread samples of one (trial, rank, iteration) — the
// paper's "process iteration level aggregation" — as a zero-copy view
// into the column. Callers must not mutate it, except to fill a dataset
// fresh from NewDataset.
func (d *Dataset) Block(trial, rank, iter int) []float64 {
	if trial < 0 || trial >= d.Trials || rank < 0 || rank >= d.Ranks || iter < 0 || iter >= d.Iterations {
		panic(fmt.Sprintf("trace: block (%d,%d,%d) outside %dx%dx%d", trial, rank, iter, d.Trials, d.Ranks, d.Iterations))
	}
	off := ((trial*d.Ranks+rank)*d.Iterations + iter) * d.Threads
	return d.times[off : off+d.Threads : off+d.Threads]
}

// SetFromRecorder copies one rank's recorder into the dataset.
func (d *Dataset) SetFromRecorder(trial, rank int, rec *Recorder) {
	if rec.Iterations() != d.Iterations || rec.Threads() != d.Threads {
		panic("trace: recorder geometry does not match dataset")
	}
	for i := 0; i < d.Iterations; i++ {
		copy(d.Block(trial, rank, i), rec.IterationSeconds(i))
	}
}

// AllSamples returns every compute time in the dataset — the paper's
// "application level aggregation" (768000 samples at the default
// geometry). The result is a fresh slice the caller may sort or mutate.
func (d *Dataset) AllSamples() []float64 {
	out := make([]float64, len(d.times))
	copy(out, d.times)
	return out
}

// IterationSamples returns all samples of one application iteration across
// every trial and rank — "application iteration level aggregation" (3840
// samples at the default geometry).
func (d *Dataset) IterationSamples(iter int) []float64 {
	out := make([]float64, 0, d.Trials*d.Ranks*d.Threads)
	for t := 0; t < d.Trials; t++ {
		for r := 0; r < d.Ranks; r++ {
			out = append(out, d.Block(t, r, iter)...)
		}
	}
	return out
}

// Fingerprint returns a 64-bit FNV-1a content hash over the dataset's app
// name, geometry and the IEEE-754 bits of every sample: each (trial,
// rank) stripe is hashed in (iteration, thread) order and the stripe
// hashes are combined in trial-major order. Two datasets with equal
// fingerprints are byte-identical for analysis purposes; the campaign
// engine uses this to verify cache correctness. For sink-filled datasets
// the value was accumulated incrementally during the fill and this call
// is a cached load; otherwise it is computed stripe-wise in one pass.
func (d *Dataset) Fingerprint() uint64 {
	if d.hasFP {
		return d.fp
	}
	stripeLen := d.Iterations * d.Threads
	stripes := make([]uint64, 0, d.Trials*d.Ranks)
	for off := 0; off < len(d.times); off += stripeLen {
		stripes = append(stripes, stripeHash(d.times[off:off+stripeLen]))
	}
	return combineFingerprint(d.App, d.Trials, d.Ranks, d.Iterations, d.Threads, stripes)
}

// Cursor returns a block-at-a-time cursor over every process iteration in
// deterministic (trial, rank, iteration) order.
func (d *Dataset) Cursor() *Cursor { return d.CursorRange(0, d.Iterations) }

// CursorRange returns a cursor restricted to iterations in [fromIter,
// toIter), clamped to the dataset, for phase-wise analysis.
func (d *Dataset) CursorRange(fromIter, toIter int) *Cursor {
	return newCursor(d, fromIter, toIter)
}

// Validate checks that the geometry is positive and that the samples
// fill it exactly.
func (d *Dataset) Validate() error {
	n, err := sampleCount(d.Trials, d.Ranks, d.Iterations, d.Threads)
	if err != nil {
		return err
	}
	if len(d.times) != n {
		return fmt.Errorf("trace: geometry %dx%dx%dx%d holds %d samples, %d present",
			d.Trials, d.Ranks, d.Iterations, d.Threads, n, len(d.times))
	}
	return nil
}

// datasetJSON is the JSON form of a Dataset: the header plus the samples
// nested [trial][rank][iteration][thread].
type datasetJSON struct {
	App        string          `json:"app"`
	Trials     int             `json:"trials"`
	Ranks      int             `json:"ranks"`
	Iterations int             `json:"iterations"`
	Threads    int             `json:"threads"`
	Times      [][][][]float64 `json:"times"`
}

// toJSON builds the nested form over the column; the innermost slices
// share its storage.
func (d *Dataset) toJSON() (datasetJSON, error) {
	if err := d.Validate(); err != nil {
		return datasetJSON{}, err
	}
	times := make([][][][]float64, d.Trials)
	for t := range times {
		times[t] = make([][][]float64, d.Ranks)
		for r := range times[t] {
			times[t][r] = make([][]float64, d.Iterations)
			for i := range times[t][r] {
				times[t][r][i] = d.Block(t, r, i)
			}
		}
	}
	return datasetJSON{App: d.App, Trials: d.Trials, Ranks: d.Ranks,
		Iterations: d.Iterations, Threads: d.Threads, Times: times}, nil
}

// MarshalJSON writes the header and the nested "times" array.
func (d Dataset) MarshalJSON() ([]byte, error) {
	w, err := d.toJSON()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads what MarshalJSON writes. It rejects a non-positive
// geometry and checks the nested array's shape against the header before
// it allocates the column, so the column never outgrows the input.
func (d *Dataset) UnmarshalJSON(b []byte) error {
	var w datasetJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	n, err := sampleCount(w.Trials, w.Ranks, w.Iterations, w.Threads)
	if err != nil {
		return err
	}
	if len(w.Times) != w.Trials {
		return fmt.Errorf("trace: %d trials declared, %d present", w.Trials, len(w.Times))
	}
	for t, trial := range w.Times {
		if len(trial) != w.Ranks {
			return fmt.Errorf("trace: trial %d: %d ranks declared, %d present", t, w.Ranks, len(trial))
		}
		for r, rank := range trial {
			if len(rank) != w.Iterations {
				return fmt.Errorf("trace: trial %d rank %d: %d iterations declared, %d present", t, r, w.Iterations, len(rank))
			}
			for i, iter := range rank {
				if len(iter) != w.Threads {
					return fmt.Errorf("trace: trial %d rank %d iter %d: %d threads declared, %d present", t, r, i, w.Threads, len(iter))
				}
			}
		}
	}
	times := make([]float64, 0, n)
	for _, trial := range w.Times {
		for _, rank := range trial {
			for _, iter := range rank {
				times = append(times, iter...)
			}
		}
	}
	*d = Dataset{App: w.App, Trials: w.Trials, Ranks: w.Ranks,
		Iterations: w.Iterations, Threads: w.Threads, times: times}
	return nil
}

// WriteJSON writes the dataset as JSON.
func (d *Dataset) WriteJSON(w io.Writer) error {
	v, err := d.toJSON()
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(v)
}

// ReadJSON reads a dataset written by WriteJSON, rejecting any whose
// geometry is not positive or does not match its samples.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("trace: decoding dataset: %w", err)
	}
	return &d, nil
}
