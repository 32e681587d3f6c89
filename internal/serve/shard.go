// The /v1/shard endpoint: the worker half of federated sweep execution.
// A shard is one sweep cell restricted to a contiguous range of its
// trial space; the response carries the mergeable accumulator state —
// not finished rows — so a coordinator can combine shards from many
// workers into a result provably equal to single-node execution.
//
// Exactness contract: the workload models are deterministic functions of
// (root seed, absolute trial, rank, iteration), so a worker generating
// trials [lo, hi) of a geometry produces bit-identical samples to those
// trials of a full single-node run, observed in the same within-trial
// order by the cursor. The accumulators key their partials by absolute
// trial and finalize in ascending-trial order, which makes every
// moment-derived metric and the Table 1 row bit-identical under any
// trial partition; only the sketch-backed IQR statistics degrade to the
// sketch's documented rank-error bound.

package serve

import (
	"fmt"
	"net/http"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/rng"
	"earlybird/internal/stats/normality"
	"earlybird/internal/workload"
)

// ShardRequest asks for one cell's accumulator state over the trial
// range [TrialLo, TrialHi). Geometry fields resolve exactly like
// StudySpec's; Alpha and LaggardThresholdSec default to the paper's.
type ShardRequest struct {
	App string `json:"app"`
	// Geometry is the FULL cell geometry (its Trials is the whole trial
	// space, not the shard's size); mutually exclusive with GeometryName.
	Geometry     *cluster.Config `json:"geometry,omitempty"`
	GeometryName string          `json:"geometry_name,omitempty"`
	Alpha        float64         `json:"alpha,omitempty"`
	LaggardSec   float64         `json:"laggard_threshold_sec,omitempty"`
	// DLB is the cell's rebalancing policy; omitted means static. Shards
	// never apply a server default: the coordinator resolved the cell's
	// policy and the worker must execute exactly that. Rebalancing is
	// strictly per-trial, so the exactness contract survives any trial
	// partition under any policy.
	DLB     *dlb.Spec `json:"dlb,omitempty"`
	TrialLo int       `json:"trial_lo"`
	TrialHi int       `json:"trial_hi"`
}

// ShardResponse is one shard's accumulator state. MetricsState and
// Table1State are the binary encodings of analysis.MetricsAccumulator
// and analysis.Table1Accumulator (base64 on the JSON wire), keyed by
// absolute trial so shards merge in any order.
type ShardResponse struct {
	App                 string         `json:"app"`
	Geometry            cluster.Config `json:"geometry"`
	Alpha               float64        `json:"alpha"`
	LaggardThresholdSec float64        `json:"laggard_threshold_sec"`
	// DLB echoes the resolved rebalancing policy the shard ran under
	// (zero value: static).
	DLB     dlb.Spec `json:"dlb"`
	TrialLo int      `json:"trial_lo"`
	TrialHi int      `json:"trial_hi"`
	// Blocks is the number of process-iteration blocks observed:
	// (TrialHi-TrialLo) x ranks x iterations.
	Blocks       int64  `json:"blocks"`
	MetricsState []byte `json:"metrics_state"`
	Table1State  []byte `json:"table1_state"`
	// DatasetCacheHit reports the shard read an engine-cached columnar
	// store; Streamed reports it was over the sweep cache bound and ran
	// trial-at-a-time, uncached (memory bounded by one trial's tensor,
	// observation order still deterministic).
	DatasetCacheHit bool `json:"dataset_cache_hit"`
	Streamed        bool `json:"streamed"`
}

// trialShard offsets a workload model's trial axis: shard workers
// generate trials [lo, hi) of the full geometry by running a
// (hi-lo)-trial study whose trial t maps to absolute trial t+lo. The
// name carries the offset so the engine's dataset cache keys offset
// shards separately; a lo == 0 shard keeps the base name and therefore
// shares cache entries with ordinary studies of its prefix geometry.
type trialShard struct {
	workload.Model
	lo int
}

func (m trialShard) Name() string {
	return fmt.Sprintf("%s#t%d", m.Model.Name(), m.lo)
}

func (m trialShard) FillProcessIteration(root *rng.Source, trial, rank, iter int, out []float64) {
	m.Model.FillProcessIteration(root, trial+m.lo, rank, iter, out)
}

// resolveShard validates the request and fills defaults.
func (req ShardRequest) resolve() (ShardRequest, error) {
	if req.Geometry != nil && req.GeometryName != "" {
		return req, fmt.Errorf("geometry and geometry_name are mutually exclusive")
	}
	geom := cluster.DefaultConfig()
	if req.Geometry != nil {
		geom = defaultedGeometry(*req.Geometry)
	} else if req.GeometryName != "" {
		g, err := namedGeometry(req.GeometryName)
		if err != nil {
			return req, err
		}
		geom = g
	}
	if err := geom.Validate(); err != nil {
		return req, err
	}
	req.Geometry = &geom
	if req.Alpha == 0 {
		req.Alpha = normality.DefaultAlpha
	}
	if req.LaggardSec == 0 {
		req.LaggardSec = analysis.DefaultLaggardThresholdSec
	}
	if req.DLB != nil {
		resolved, err := req.DLB.Resolve()
		if err != nil {
			return req, err
		}
		req.DLB = &resolved
	}
	if req.TrialLo < 0 || req.TrialHi <= req.TrialLo || req.TrialHi > geom.Trials {
		return req, fmt.Errorf("trial range [%d, %d) outside the geometry's %d trials",
			req.TrialLo, req.TrialHi, geom.Trials)
	}
	return req, nil
}

// runShard computes one shard's accumulator state. Shards at or below
// the sweep cache bound read the engine's columnar cache through a
// deterministic cursor (hot for repeated cells routed to this worker);
// larger shards generate and fold one trial at a time, uncached — still
// through a columnar cursor, because the exactness contract demands a
// deterministic observation order per trial (a multi-observer
// cluster.Fill would split a trial's ranks across worker observers and
// shift the low-order bits). Memory on that path is bounded by one
// trial's tensor, not the shard's.
func (s *Server) runShard(req ShardRequest) (ShardResponse, error) {
	geom := *req.Geometry
	var policy dlb.Spec
	if req.DLB != nil {
		policy = *req.DLB
	}
	resp := ShardResponse{
		App:                 req.App,
		Geometry:            geom,
		Alpha:               req.Alpha,
		LaggardThresholdSec: req.LaggardSec,
		DLB:                 policy,
		TrialLo:             req.TrialLo,
		TrialHi:             req.TrialHi,
	}
	base, err := workload.ByName(req.App)
	if err != nil {
		return resp, err
	}
	var model workload.Model = base
	if req.TrialLo > 0 {
		model = trialShard{Model: base, lo: req.TrialLo}
	}
	shardGeom := geom
	shardGeom.Trials = req.TrialHi - req.TrialLo

	macc := analysis.NewMetricsAccumulator(req.App, req.LaggardSec)
	tacc := analysis.NewTable1Accumulator(req.App, req.Alpha)
	if shardGeom.Samples() <= s.maxSweepSamples {
		ds, hit, err := s.eng.DatasetDLB(model, shardGeom, policy)
		if err != nil {
			return resp, err
		}
		resp.DatasetCacheHit = hit
		cur := ds.Cursor()
		for cur.Next() {
			b := cur.Block()
			macc.ObserveBlock(b.Trial+req.TrialLo, b.Rank, b.Iter, b.Times)
			tacc.ObserveBlock(b.Trial+req.TrialLo, b.Rank, b.Iter, b.Times)
		}
	} else {
		oneTrial := geom
		oneTrial.Trials = 1
		for t := req.TrialLo; t < req.TrialHi; t++ {
			var m workload.Model = base
			if t > 0 {
				m = trialShard{Model: base, lo: t}
			}
			ds, err := cluster.RunColumnarDLB(m, oneTrial, policy, 0)
			if err != nil {
				return resp, err
			}
			cur := ds.Cursor()
			for cur.Next() {
				b := cur.Block()
				macc.ObserveBlock(t, b.Rank, b.Iter, b.Times)
				tacc.ObserveBlock(t, b.Rank, b.Iter, b.Times)
			}
		}
		resp.Streamed = true
	}
	resp.Blocks = macc.Blocks()
	if resp.MetricsState, err = macc.MarshalBinary(); err != nil {
		return resp, err
	}
	if resp.Table1State, err = tacc.MarshalBinary(); err != nil {
		return resp, err
	}
	return resp, nil
}

// handleShard answers POST /v1/shard: one cell's trial-range accumulator
// state, for a fleet coordinator to merge. Execution takes a slot of the
// server-wide semaphore like any other study-shaped work, and adaptive
// admission gates it the same way: a worker below its efficiency
// watermark sheds the shard with 503 + Retry-After, which the
// coordinator's scheduler reads as busy-until-deadline — never as death.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resolved, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if err := s.admit(); err != nil {
		writeStudyError(w, err)
		return
	}
	release := s.acquire()
	resp, err := s.runShard(resolved)
	release()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
