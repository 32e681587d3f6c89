// Package network models the cluster interconnect with the Hockney
// alpha-beta cost model: transferring m bytes costs
// alpha + m/beta (+ a per-message software overhead), and a link
// serialises concurrent transfers.
//
// The paper's testbed uses Intel Omni-Path (100 Gb/s class); the
// early-bird overlap experiments (E12) use these parameters to convert
// the measured thread-arrival spreads into transmission timelines.
package network

import "fmt"

// Fabric is an alpha-beta interconnect parameterisation.
type Fabric struct {
	// LatencySec is the per-message wire latency (alpha).
	LatencySec float64
	// BandwidthBytesPerSec is the link bandwidth (beta).
	BandwidthBytesPerSec float64
	// OverheadSec is the per-message host software overhead (injection
	// cost), paid once per message regardless of size.
	OverheadSec float64
}

// OmniPath returns parameters representative of the paper's 100 Gb/s
// Intel Omni-Path fabric: ~1 microsecond latency, 12.5 GB/s, with a small
// per-message injection overhead.
func OmniPath() Fabric {
	return Fabric{
		LatencySec:           1.0e-6,
		BandwidthBytesPerSec: 12.5e9,
		OverheadSec:          0.3e-6,
	}
}

// Validate checks the parameters.
func (f Fabric) Validate() error {
	if f.LatencySec < 0 || f.BandwidthBytesPerSec <= 0 || f.OverheadSec < 0 {
		return fmt.Errorf("network: invalid fabric %+v", f)
	}
	return nil
}

// TransferTime returns the cost of one message of the given size.
func (f Fabric) TransferTime(bytes int) float64 {
	if bytes < 0 {
		bytes = 0
	}
	return f.LatencySec + f.OverheadSec + float64(bytes)/f.BandwidthBytesPerSec
}

// Hierarchical is a two-level fabric: ranks on the same node talk over
// the Intra fabric (shared-memory or NVLink-class), ranks on different
// nodes over the Inter fabric, and the inter-node level carries a
// congestion factor modelling contention on the node's injection links
// when many ranks gather to one root at once.
//
// The analysis pipeline's cost model is a single alpha-beta Fabric (it
// is part of the engine's spec key and the wire format), so a
// hierarchical fabric is applied by flattening: Effective(ranks) returns
// the alpha-beta fabric an all-to-one gather over that many ranks
// experiences on average, weighting the intra- and inter-node parameters
// by the fraction of peers on the root's node. The scenario compiler
// compiles hierarchical fabric declarations through Effective, so two
// scenarios that declare the same topology resolve to the same spec key.
type Hierarchical struct {
	// Intra is the fabric between ranks sharing a node.
	Intra Fabric
	// Inter is the fabric between ranks on different nodes.
	Inter Fabric
	// RanksPerNode is the node size; ranks beyond it are remote.
	RanksPerNode int
	// Congestion >= 1 scales the inter-node cost: latency is multiplied
	// and bandwidth divided by it, modelling serialisation on the node's
	// injection links. 0 means uncongested (factor 1).
	Congestion float64
}

// Validate checks the topology and both levels.
func (h Hierarchical) Validate() error {
	if h.RanksPerNode < 1 {
		return fmt.Errorf("network: hierarchical fabric needs ranks_per_node >= 1, got %d", h.RanksPerNode)
	}
	if h.Congestion != 0 && h.Congestion < 1 {
		return fmt.Errorf("network: congestion factor %g < 1 would make contention a speedup", h.Congestion)
	}
	if err := h.Intra.Validate(); err != nil {
		return fmt.Errorf("intra level: %w", err)
	}
	if err := h.Inter.Validate(); err != nil {
		return fmt.Errorf("inter level: %w", err)
	}
	return nil
}

// congestion returns the effective factor (>= 1).
func (h Hierarchical) congestion() float64 {
	if h.Congestion < 1 {
		return 1
	}
	return h.Congestion
}

// Effective flattens the hierarchy for an all-to-one gather over ranks
// processes: a fraction w = (min(ranks, ranksPerNode) - 1) / (ranks - 1)
// of the root's peers are intra-node; the rest cross the congested
// inter-node level. Latencies and overheads mix arithmetically by that
// weight; bandwidths mix harmonically (a message's transfer time, not
// its rate, is what adds). A single-rank geometry sees the intra fabric.
func (h Hierarchical) Effective(ranks int) Fabric {
	c := h.congestion()
	inter := Fabric{
		LatencySec:           h.Inter.LatencySec * c,
		BandwidthBytesPerSec: h.Inter.BandwidthBytesPerSec / c,
		OverheadSec:          h.Inter.OverheadSec,
	}
	if ranks <= 1 {
		return h.Intra
	}
	local := h.RanksPerNode
	if local > ranks {
		local = ranks
	}
	w := float64(local-1) / float64(ranks-1)
	return Fabric{
		LatencySec:           w*h.Intra.LatencySec + (1-w)*inter.LatencySec,
		BandwidthBytesPerSec: 1 / (w/h.Intra.BandwidthBytesPerSec + (1-w)/inter.BandwidthBytesPerSec),
		OverheadSec:          w*h.Intra.OverheadSec + (1-w)*inter.OverheadSec,
	}
}

// Link is a serialising wire: transfers occupy it back-to-back. The zero
// value of busy means the link is free from time 0.
type Link struct {
	fabric Fabric
	busy   float64
}

// NewLink returns an idle link over the fabric.
func NewLink(f Fabric) *Link {
	return &Link{fabric: f}
}

// Send schedules a message of the given size that becomes ready at time
// ready (seconds) and returns its completion time. The link serialises:
// the message starts no earlier than the previous one finished.
func (l *Link) Send(ready float64, bytes int) (done float64) {
	start := ready
	if l.busy > start {
		start = l.busy
	}
	done = start + l.fabric.TransferTime(bytes)
	l.busy = done
	return done
}

// Reset returns the link to idle at time 0.
func (l *Link) Reset() {
	l.busy = 0
}
