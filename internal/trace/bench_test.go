package trace

import (
	"bytes"
	"testing"

	"earlybird/internal/simclock"
)

func benchDataset() *Dataset {
	d := NewDataset("bench", 2, 4, 50, 48)
	v := 0.02
	eachBlock(d, func(_, _, _ int, xs []float64) {
		for i := range xs {
			xs[i] = v
			v += 1e-6
		}
	})
	return d
}

func BenchmarkRecorderEnterExit(b *testing.B) {
	clock := simclock.NewVirtual()
	rec := NewRecorder(clock, 1, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th := i % 48
		rec.Enter(0, th, th)
		rec.Exit(0, th, th)
	}
}

func BenchmarkAllSamples(b *testing.B) {
	d := benchDataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(d.AllSamples()) != d.NumSamples() {
			b.Fatal("bad aggregation")
		}
	}
}

func BenchmarkWriteJSON(b *testing.B) {
	d := benchDataset()
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := d.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkWriteCSV(b *testing.B) {
	d := benchDataset()
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := d.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkReadCSV(b *testing.B) {
	d := benchDataset()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
