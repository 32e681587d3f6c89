package trace

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

// eachBlock calls fn for every process iteration of d in (trial, rank,
// iteration) order, handing it the block's view of the column so tests
// can fill a fresh dataset in place.
func eachBlock(d *Dataset, fn func(trial, rank, iter int, xs []float64)) {
	for cur := d.Cursor(); cur.Next(); {
		b := cur.Block()
		fn(b.Trial, b.Rank, b.Iter, b.Times)
	}
}

// fillPattern writes a recognisable, coordinate-derived value into every
// cell of a dataset.
func fillPattern(d *Dataset) {
	eachBlock(d, func(trial, rank, iter int, xs []float64) {
		for th := range xs {
			xs[th] = patternValue(trial, rank, iter, th)
		}
	})
}

func patternValue(trial, rank, iter, th int) float64 {
	return float64(trial)*1e-2 + float64(rank)*1e-4 + float64(iter)*1e-6 + float64(th)*1e-8
}

func TestSinkParallelFillMatchesDataset(t *testing.T) {
	const trials, ranks, iters, threads = 3, 4, 6, 5
	want := NewDataset("app", trials, ranks, iters, threads)
	fillPattern(want)

	sink := NewSink("app", trials, ranks, iters, threads)
	var wg sync.WaitGroup
	for tr := 0; tr < trials; tr++ {
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(tr, r int) {
				defer wg.Done()
				w := sink.Stripe(tr, r)
				for i := 0; i < iters; i++ {
					w.AppendWith(func(out []float64) {
						for th := range out {
							out[th] = patternValue(tr, r, i, th)
						}
					})
				}
			}(tr, r)
		}
	}
	wg.Wait()
	col, err := sink.Seal()
	if err != nil {
		t.Fatal(err)
	}

	for tr := 0; tr < trials; tr++ {
		for r := 0; r < ranks; r++ {
			for i := 0; i < iters; i++ {
				got, exp := col.Block(tr, r, i), want.Block(tr, r, i)
				for th := 0; th < threads; th++ {
					if got[th] != exp[th] {
						t.Fatalf("cell (%d,%d,%d,%d) = %v, want %v", tr, r, i, th, got[th], exp[th])
					}
				}
			}
		}
	}

	// The fingerprint accumulated during the fill must equal the one
	// recomputed from scratch.
	if !col.hasFP || want.hasFP {
		t.Fatal("only the sealed dataset should carry a cached fingerprint")
	}
	if col.Fingerprint() != want.Fingerprint() {
		t.Fatal("sealed fingerprint differs from recomputed fingerprint")
	}
}

func TestSinkSealRejectsIncompleteStripe(t *testing.T) {
	sink := NewSink("app", 1, 2, 3, 2)
	w := sink.Stripe(0, 0)
	for i := 0; i < 3; i++ {
		w.Append([]float64{1, 2})
	}
	// Stripe (0,1) never filled.
	if _, err := sink.Seal(); err == nil {
		t.Fatal("expected incomplete-stripe error")
	}
}

func TestStripeWriterPanicsPastEnd(t *testing.T) {
	sink := NewSink("app", 1, 1, 1, 2)
	w := sink.Stripe(0, 0)
	w.Append([]float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-append")
		}
	}()
	w.Append([]float64{3, 4})
}

func TestCursorVisitsEveryBlockInOrder(t *testing.T) {
	d := NewDataset("app", 2, 3, 4, 2)
	fillPattern(d)
	var wantOrder [][3]int
	for trial := 0; trial < d.Trials; trial++ {
		for rank := 0; rank < d.Ranks; rank++ {
			for iter := 0; iter < d.Iterations; iter++ {
				wantOrder = append(wantOrder, [3]int{trial, rank, iter})
			}
		}
	}
	cur := d.Cursor()
	n := 0
	for cur.Next() {
		b := cur.Block()
		if n >= len(wantOrder) {
			t.Fatal("cursor yields more blocks than the dataset holds")
		}
		if got := [3]int{b.Trial, b.Rank, b.Iter}; got != wantOrder[n] {
			t.Fatalf("block %d = %v, want %v", n, got, wantOrder[n])
		}
		if b.Times[1] != patternValue(b.Trial, b.Rank, b.Iter, 1) {
			t.Fatalf("block %d has wrong samples", n)
		}
		n++
	}
	if n != len(wantOrder) {
		t.Fatalf("cursor yielded %d blocks, want %d", n, len(wantOrder))
	}
}

func TestCursorRange(t *testing.T) {
	d := NewDataset("app", 2, 2, 10, 2)
	cur := d.CursorRange(3, 7)
	count := 0
	for cur.Next() {
		b := cur.Block()
		if b.Iter < 3 || b.Iter >= 7 {
			t.Fatalf("iteration %d outside [3,7)", b.Iter)
		}
		count++
	}
	if count != 2*2*4 {
		t.Fatalf("cursor yielded %d blocks, want %d", count, 2*2*4)
	}

	// Empty and clamped ranges.
	if d.CursorRange(5, 5).Next() {
		t.Fatal("empty range yielded a block")
	}
	cur = d.CursorRange(-3, 99)
	count = 0
	for cur.Next() {
		count++
	}
	if count != d.NumProcessIterations() {
		t.Fatalf("clamped range yielded %d blocks, want %d", count, d.NumProcessIterations())
	}
}

// TestColumnarCoordRoundTrip: the block of (trial, rank, iteration) sits
// at row ((trial*ranks+rank)*iterations+iteration)*threads of the column,
// so the four index columns stay implicit in the row number.
func TestColumnarCoordRoundTrip(t *testing.T) {
	d := NewDataset("app", 2, 3, 4, 5)
	for row := range d.times {
		d.times[row] = float64(row)
	}
	row := 0
	for tr := 0; tr < 2; tr++ {
		for r := 0; r < 3; r++ {
			for i := 0; i < 4; i++ {
				for th, x := range d.Block(tr, r, i) {
					if x != float64(row) {
						t.Fatalf("Block(%d,%d,%d)[%d] is row %v, want row %d", tr, r, i, th, x, row)
					}
					row++
				}
			}
		}
	}
}

func TestDatasetColumnarAdoptsJSONDecoded(t *testing.T) {
	d := NewDataset("app", 2, 2, 3, 2)
	fillPattern(d)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSamples() != d.NumSamples() {
		t.Fatalf("decoded column has %d samples, want %d", back.NumSamples(), d.NumSamples())
	}
	if back.Fingerprint() != d.Fingerprint() {
		t.Fatal("decoded fingerprint differs")
	}
	if got := back.Block(1, 1, 2); got[1] != patternValue(1, 1, 2, 1) {
		t.Fatalf("decoded block sample %v, want %v", got[1], patternValue(1, 1, 2, 1))
	}
}

func TestColumnarTimesColumnSharesStorage(t *testing.T) {
	d := NewDataset("app", 1, 1, 2, 3)
	d.Block(0, 0, 1)[2] = 42e-3
	if len(d.times) != 6 {
		t.Fatalf("column length %d", len(d.times))
	}
	if d.times[5] != 42e-3 {
		t.Fatalf("times[5] = %v, want 42e-3 (storage not shared)", d.times[5])
	}
	if math.IsNaN(d.times[0]) {
		t.Fatal("unexpected NaN")
	}
}
