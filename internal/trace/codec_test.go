package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

const csvHeader = "app,trial,rank,iteration,thread,compute_seconds\n"

// allocDelta returns how many bytes fn allocated on the heap.
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// nestedDataset has the JSON tags of the dataset's wire form, with the
// samples nested independently of the package's codec.
type nestedDataset struct {
	App        string          `json:"app"`
	Trials     int             `json:"trials"`
	Ranks      int             `json:"ranks"`
	Iterations int             `json:"iterations"`
	Threads    int             `json:"threads"`
	Times      [][][][]float64 `json:"times"`
}

// TestDatasetWireFormatsUnchanged pins the JSON and CSV forms: the flat
// column must encode to exactly what encoding/json writes for the nested
// tensor, and both decoders must give back the same samples.
func TestDatasetWireFormatsUnchanged(t *testing.T) {
	const trials, ranks, iters, threads = 2, 3, 4, 5
	want := nestedDataset{App: "qmc", Trials: trials, Ranks: ranks, Iterations: iters, Threads: threads}
	var csvIn strings.Builder
	csvIn.WriteString(csvHeader)
	x := uint64(0x9e3779b97f4a7c15)
	want.Times = make([][][][]float64, trials)
	for tr := range want.Times {
		want.Times[tr] = make([][][]float64, ranks)
		for r := range want.Times[tr] {
			want.Times[tr][r] = make([][]float64, iters)
			for i := range want.Times[tr][r] {
				want.Times[tr][r][i] = make([]float64, threads)
				for th := range want.Times[tr][r][i] {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					v := float64(x%1_000_000_007) * 1.1e-12
					want.Times[tr][r][i][th] = v
					csvIn.WriteString("qmc," + strconv.Itoa(tr) + "," + strconv.Itoa(r) + "," +
						strconv.Itoa(i) + "," + strconv.Itoa(th) + "," + strconv.FormatFloat(v, 'g', -1, 64) + "\n")
				}
			}
		}
	}

	sink := NewSink("qmc", trials, ranks, iters, threads)
	for tr := 0; tr < trials; tr++ {
		for r := 0; r < ranks; r++ {
			w := sink.Stripe(tr, r)
			for i := 0; i < iters; i++ {
				w.Append(want.Times[tr][r][i])
			}
		}
	}
	d, err := sink.Seal()
	if err != nil {
		t.Fatal(err)
	}

	var got, ref bytes.Buffer
	if err := d.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&ref).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("WriteJSON moved:\n got %s\nwant %s", got.Bytes(), ref.Bytes())
	}
	marshalled, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(marshalled, '\n'), ref.Bytes()) {
		t.Fatal("json.Marshal of a dataset differs from WriteJSON")
	}

	sameSamples := func(name string, back *Dataset) {
		t.Helper()
		if back.App != d.App || back.Trials != trials || back.Ranks != ranks ||
			back.Iterations != iters || back.Threads != threads {
			t.Fatalf("%s: header %q %dx%dx%dx%d", name, back.App, back.Trials, back.Ranks, back.Iterations, back.Threads)
		}
		a, b := d.AllSamples(), back.AllSamples()
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				t.Fatalf("%s: sample %d = %v, want %v", name, k, b[k], a[k])
			}
		}
		if back.Fingerprint() != d.Fingerprint() {
			t.Fatalf("%s: fingerprint %#x, want %#x", name, back.Fingerprint(), d.Fingerprint())
		}
	}

	fromJSON, err := ReadJSON(bytes.NewReader(ref.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameSamples("ReadJSON", fromJSON)

	fromCSV, err := ReadCSV(strings.NewReader(csvIn.String()))
	if err != nil {
		t.Fatal(err)
	}
	sameSamples("ReadCSV", fromCSV)
	var csvOut bytes.Buffer
	if err := fromCSV.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if csvOut.String() != csvIn.String() {
		t.Fatal("WriteCSV after ReadCSV does not reproduce the input bytes")
	}
}

// TestReadCSVRejectsSparseGeometryBeforeAllocating is the regression test
// for ReadCSV sizing its column from the largest index before counting
// rows: one short row naming a huge thread index made the reader allocate
// 8 bytes per unit of that index, and indices whose product overflows
// int panicked.
func TestReadCSVRejectsSparseGeometryBeforeAllocating(t *testing.T) {
	row := csvHeader + "fe,0,0,0,50000000,1\n"
	var err error
	alloc := allocDelta(func() { _, err = ReadCSV(strings.NewReader(row)) })
	if err == nil {
		t.Fatal("a one-row CSV naming thread 50000000 was accepted")
	}
	if alloc >= 1<<20 {
		t.Fatalf("rejecting a %d-byte CSV allocated %d bytes", len(row), alloc)
	}

	for _, row := range []string{
		"fe,4611686018427387903,1,0,0,1\n", // 2^62 x 2 wraps negative
		"fe,0,3037000499,3037000499,0,1\n", // 3037000500^2 exceeds MaxInt64
		"fe,9223372036854775807,0,0,0,1\n", // MaxInt + 1 trials
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%q panicked: %v", row, r)
				}
			}()
			if _, err := ReadCSV(strings.NewReader(csvHeader + row)); err == nil {
				t.Errorf("%q was accepted", row)
			}
		}()
	}
}

// TestReadJSONRejectsNonPositiveGeometry is the regression test for the
// JSON decoder accepting an empty geometry, whose study then reported a
// NaN overlap.
func TestReadJSONRejectsNonPositiveGeometry(t *testing.T) {
	for _, in := range []string{
		`{"app":"x","trials":0,"ranks":0,"iterations":0,"threads":0,"times":[]}`,
		`{"app":"x","trials":1,"ranks":1,"iterations":1,"threads":0,"times":[[[[]]]]}`,
		`{"app":"x","trials":-1,"ranks":1,"iterations":1,"threads":1,"times":[]}`,
		`{}`,
		`null`,
	} {
		if d, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s decoded as %+v", in, d)
		}
	}
}

// allocBound is the heap a decoder may use for an input of n bytes: a
// constant per input byte plus a fixed allowance for buffers and errors.
func allocBound(n int) uint64 { return 64*uint64(n) + 256<<10 }

// checkReencode asserts that an accepted dataset survives an encode and
// decode with its app, geometry and fingerprint.
func checkReencode(t *testing.T, d *Dataset, write func(*Dataset, *bytes.Buffer) error, read func(*bytes.Buffer) (*Dataset, error)) {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("decoder accepted an invalid dataset: %v", err)
	}
	var buf bytes.Buffer
	if err := write(d, &buf); err != nil {
		t.Fatalf("re-encoding an accepted dataset: %v", err)
	}
	back, err := read(&buf)
	if err != nil {
		t.Fatalf("decoding the re-encoded dataset: %v", err)
	}
	if back.App != d.App || back.Trials != d.Trials || back.Ranks != d.Ranks ||
		back.Iterations != d.Iterations || back.Threads != d.Threads {
		t.Fatalf("header moved: %q %dx%dx%dx%d, want %q %dx%dx%dx%d",
			back.App, back.Trials, back.Ranks, back.Iterations, back.Threads,
			d.App, d.Trials, d.Ranks, d.Iterations, d.Threads)
	}
	if back.Fingerprint() != d.Fingerprint() {
		t.Fatal("fingerprint moved across a re-encode")
	}
}

// FuzzReadCSV and FuzzReadJSON check the dataset decoders on untrusted
// bytes: no panic, heap use bounded by the input's length, and any
// accepted dataset survives a re-encode with its app, geometry and
// fingerprint. Seeds live in testdata/fuzz.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var d *Dataset
		var err error
		if alloc := allocDelta(func() { d, err = ReadCSV(bytes.NewReader(in)) }); alloc > allocBound(len(in)) {
			t.Fatalf("%d-byte input allocated %d bytes", len(in), alloc)
		}
		if err != nil {
			return
		}
		if strings.ContainsAny(d.App, ",\"\n\r") {
			return // WriteCSV refuses such names by design
		}
		checkReencode(t, d,
			func(d *Dataset, b *bytes.Buffer) error { return d.WriteCSV(b) },
			func(b *bytes.Buffer) (*Dataset, error) { return ReadCSV(b) })
	})
}

func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var d *Dataset
		var err error
		if alloc := allocDelta(func() { d, err = ReadJSON(bytes.NewReader(in)) }); alloc > allocBound(len(in)) {
			t.Fatalf("%d-byte input allocated %d bytes", len(in), alloc)
		}
		if err != nil {
			return
		}
		checkReencode(t, d,
			func(d *Dataset, b *bytes.Buffer) error { return d.WriteJSON(b) },
			func(b *bytes.Buffer) (*Dataset, error) { return ReadJSON(b) })
	})
}
