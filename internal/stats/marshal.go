// The quantile sketch's binary codec, so shard-level state can travel
// over the fleet's /v1/shard wire and merge on the coordinator. The
// format is versioned and value-preserving (see internal/wire): an
// unmarshalled sketch continues exactly where the marshalled one
// stopped.

package stats

import (
	"fmt"
	"math"

	"earlybird/internal/wire"
)

// sketchCodecVersion is the codec's version byte, bumped on any layout
// change.
const sketchCodecVersion uint8 = 1

// maxSketchCompression bounds the compression a decoded sketch may
// carry. A sketch sizes its merge buffers from its compression, so an
// unbounded value off the wire could demand any amount of memory; the
// bound sits two orders of magnitude above the largest compression
// this repository uses (DefaultSketchCompression).
const maxSketchCompression = 1e4

// MarshalBinary encodes the sketch. Buffered values are compressed first
// (a state change Quantile performs anyway), so the encoding holds only
// centroids and the encoded sketch answers every Quantile call exactly as
// the original would have.
func (q *QuantileSketch) MarshalBinary() ([]byte, error) {
	q.flush()
	var w wire.Writer
	w.U8(sketchCodecVersion)
	w.F64(q.compression)
	w.I64(q.n)
	w.F64(q.minSeen)
	w.F64(q.maxSeen)
	w.U32(uint32(len(q.centroids)))
	for _, c := range q.centroids {
		w.F64(c.mean)
		w.I64(c.count)
	}
	return w.Buf, nil
}

// UnmarshalBinary replaces the sketch's state with the decoded one. The
// receiver may be a zero-value sketch: the compression comes off the
// wire. It rejects any state a sketch cannot reach: a compression that
// is not in (0, 1e4], centroid means that are NaN or descending,
// centroid weights that are not positive or do not sum to n, and an
// inverted or NaN min/max (an empty sketch carries +Inf/-Inf).
func (q *QuantileSketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != sketchCodecVersion {
		return fmt.Errorf("stats: unknown QuantileSketch codec version %d", v)
	}
	var dec QuantileSketch
	dec.compression = r.F64()
	dec.n = r.I64()
	dec.minSeen = r.F64()
	dec.maxSeen = r.F64()
	nc := r.U32()
	if r.Err() == nil && uint64(nc)*16 > uint64(r.Remaining()) {
		return fmt.Errorf("stats: corrupt centroid count %d (%d bytes left)", nc, r.Remaining())
	}
	if nc > 0 {
		dec.centroids = make([]centroid, nc)
		for i := range dec.centroids {
			dec.centroids[i] = centroid{mean: r.F64(), count: r.I64()}
		}
	}
	if err := r.Finish("QuantileSketch"); err != nil {
		return err
	}
	if !(dec.compression > 0 && dec.compression <= maxSketchCompression) {
		return fmt.Errorf("stats: decoded sketch has compression %g outside (0, %g]", dec.compression, float64(maxSketchCompression))
	}
	var total int64
	for i, c := range dec.centroids {
		if c.count <= 0 || c.count > dec.n-total {
			return fmt.Errorf("stats: decoded sketch has centroid weight %d (n %d, %d before it)", c.count, dec.n, total)
		}
		total += c.count
		if math.IsNaN(c.mean) || (i > 0 && c.mean < dec.centroids[i-1].mean) {
			return fmt.Errorf("stats: decoded sketch has centroid mean %g out of order at %d", c.mean, i)
		}
	}
	if total != dec.n {
		return fmt.Errorf("stats: decoded sketch centroid mass %d does not match n %d", total, dec.n)
	}
	if dec.n == 0 {
		if !math.IsInf(dec.minSeen, 1) || !math.IsInf(dec.maxSeen, -1) {
			return fmt.Errorf("stats: decoded empty sketch has min %g and max %g", dec.minSeen, dec.maxSeen)
		}
	} else if !(dec.minSeen <= dec.maxSeen) {
		return fmt.Errorf("stats: decoded sketch has min %g above max %g", dec.minSeen, dec.maxSeen)
	}
	*q = dec
	return nil
}
