package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/scan"
	"repro/internal/scenario"
)

// The scenario layer: POST /v1/scenario runs one strategic-manipulation
// scan (internal/scenario) inline, and kinds "ksybil"/"coalition"/"topology"
// of POST /v1/jobs run the same scans as durable, checkpointed jobs. Both
// paths share one validator and one execution core, so a job's final Result
// is byte-identical to the inline response of the same request — whether or
// not the job was ever interrupted.

// Scenario limits. Scans fan out allocations per point, so every axis is
// capped at submission; violations answer 400 scenario_limit.
const (
	// minScenarioK/maxScenarioK bound the identity count of a ksybil scan.
	minScenarioK = 2
	maxScenarioK = 8
	// maxScenarioPoints caps the total point count of any scenario scan
	// (grid points for ksybil/coalition, instances for topology).
	maxScenarioPoints = 4096
	// maxCoalitionMembers bounds the coalition size; the grid is
	// Grid^members, so this also bounds the exponent.
	maxCoalitionMembers = 4
	// maxTopologyN / maxTopologyCount / maxTopologyGrid bound a topology
	// scan: each instance costs n·(grid−1) full allocations.
	maxTopologyN     = 64
	maxTopologyCount = 64
	maxTopologyGrid  = 64
)

// Error codes of the scenario API (see the main catalogue in wire.go).
const (
	// CodeScenarioLimit: a scenario parameter exceeds the server's scan
	// limits (400) — k outside [2, 8], a grid whose point count exceeds
	// 4096, too many coalition members, or topology bounds out of range.
	CodeScenarioLimit = "scenario_limit"
	// CodeUnknownTopology: a topology family name is not registered (400).
	// The valid names are those of scenario.Families.
	CodeUnknownTopology = "unknown_topology"
)

// ScenarioRequest is the body of POST /v1/scenario (and, nested under
// "scenario", of a scenario job submission). Kind selects the scan:
//
//   - "ksybil": agent V of ring Graph splits into K identities over the
//     composition grid Σ c_j = Grid (Grid 0 = default 64);
//   - "coalition": the Members of Graph jointly misreport over the product
//     grid of positive reports w_j·c_j/Grid, c_j ∈ {1..Grid} (default 8);
//   - "topology": generated graph Families (empty = all registered) are
//     scanned for single-agent misreport deviations — Count instances per
//     family (default 4) of N vertices (default 8) with Dist-distributed
//     weights ("uniform", "skewed", "powers", "unit"; "" = uniform), seeded
//     by Seed, each vertex trying reports w_v·c/Grid for c ∈ {1..Grid−1}.
//
// Mechanism selects the allocation backend ("" = default "bd"). Cert,
// topology-only, additionally requests a BD ratio certificate of the scan's
// best ring point (400 cert_limit for other kinds or non-certifiable
// mechanisms).
type ScenarioRequest struct {
	Kind      string    `json:"kind"`
	Mechanism string    `json:"mechanism,omitempty"`
	Graph     WireGraph `json:"graph,omitempty"`
	V         int       `json:"v,omitempty"`
	K         int       `json:"k,omitempty"`
	Grid      int       `json:"grid,omitempty"`
	Members   []int     `json:"members,omitempty"`
	Families  []string  `json:"families,omitempty"`
	Count     int       `json:"count,omitempty"`
	N         int       `json:"n,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
	Dist      string    `json:"dist,omitempty"`
	Cert      bool      `json:"cert,omitempty"`
}

// WireScenarioKSybilPoint is one evaluated k-way split: identity j holds
// w_v·Comp[j]/grid and U is the combined utility of all identities.
type WireScenarioKSybilPoint struct {
	Comp []int  `json:"comp"`
	U    string `json:"u"`
}

// ScenarioKSybilResult is the kind "ksybil" payload of a scenario answer.
type ScenarioKSybilResult struct {
	K         int                       `json:"k"`
	Grid      int                       `json:"grid"`
	Points    []WireScenarioKSybilPoint `json:"points"`
	BestIndex int                       `json:"best_index"`
	BestComp  []int                     `json:"best_comp"`
	BestU     string                    `json:"best_u"`
	Honest    string                    `json:"honest"`
	Ratio     string                    `json:"ratio"`
	Total     int                       `json:"total"`
}

// WireScenarioCoalitionPoint is one evaluated joint misreport: member j
// reported w_j·Digits[j]/grid and earned Members[j]; Joint is the sum.
type WireScenarioCoalitionPoint struct {
	Digits  []int    `json:"digits"`
	Members []string `json:"members"`
	Joint   string   `json:"joint"`
}

// ScenarioCoalitionResult is the kind "coalition" payload of a scenario
// answer. Honest/BestMember/Gains/MemberRatios are per-member vectors in
// Members order; Gains may be negative (a sacrificial member).
type ScenarioCoalitionResult struct {
	Grid         int                          `json:"grid"`
	Members      []int                        `json:"members"`
	Points       []WireScenarioCoalitionPoint `json:"points"`
	BestIndex    int                          `json:"best_index"`
	BestDigits   []int                        `json:"best_digits"`
	BestJoint    string                       `json:"best_joint"`
	HonestJoint  string                       `json:"honest_joint"`
	JointRatio   string                       `json:"joint_ratio"`
	Honest       []string                     `json:"honest"`
	BestMember   []string                     `json:"best_member"`
	Gains        []string                     `json:"gains"`
	MemberRatios []string                     `json:"member_ratios"`
	Total        int                          `json:"total"`
}

// WireTopologyOutcome is one scanned instance: the worst single-agent
// misreport deviation found over all vertices and grid reports. When
// Unbounded is set, a vertex with zero honest utility gained Best > 0 and
// Ratio is meaningless ("0").
type WireTopologyOutcome struct {
	Family     string `json:"family"`
	Index      int    `json:"index"`
	N          int    `json:"n"`
	M          int    `json:"m"`
	WorstV     int    `json:"worst_v"`
	WorstDigit int    `json:"worst_digit"`
	Honest     string `json:"honest"`
	Best       string `json:"best"`
	Ratio      string `json:"ratio"`
	Unbounded  bool   `json:"unbounded,omitempty"`
}

// WireFamilySummary aggregates one family's outcomes: the worst instance
// (regenerable from its index) and its deviation ratio — or, when
// Unbounded, its raw deviation utility.
type WireFamilySummary struct {
	Family     string `json:"family"`
	Count      int    `json:"count"`
	WorstIndex int    `json:"worst_index"`
	WorstRatio string `json:"worst_ratio"`
	Unbounded  bool   `json:"unbounded,omitempty"`
}

// ScenarioTopologyResult is the kind "topology" payload of a scenario
// answer. Certificate, present only when the request opted in with cert, is
// the BD ratio certificate of the ring family's worst instance at its worst
// vertex, self-checked by the server (cert.Check) before attachment.
type ScenarioTopologyResult struct {
	Families    []string              `json:"families"`
	Count       int                   `json:"count"`
	N           int                   `json:"n"`
	Grid        int                   `json:"grid"`
	Seed        int64                 `json:"seed"`
	Dist        string                `json:"dist"`
	Outcomes    []WireTopologyOutcome `json:"outcomes"`
	Summaries   []WireFamilySummary   `json:"summaries"`
	Total       int                   `json:"total"`
	Certificate *cert.RatioCert       `json:"certificate,omitempty"`
}

// ScenarioResponse is the body of a /v1/scenario answer (and the final
// Result of a durable scenario job): exactly one of the kind payloads is
// set, matching Kind. Mechanism is the resolved backend name.
type ScenarioResponse struct {
	Kind      string                   `json:"kind"`
	Mechanism string                   `json:"mechanism"`
	KSybil    *ScenarioKSybilResult    `json:"ksybil,omitempty"`
	Coalition *ScenarioCoalitionResult `json:"coalition,omitempty"`
	Topology  *ScenarioTopologyResult  `json:"topology,omitempty"`
}

// scenarioJobSpec is the persisted specification of a scenario job: the
// validated request with every default resolved and the point count pinned,
// so progress reporting and resume never depend on re-deriving the layout.
// Mechanism is empty for the default backend, mirroring sweepJobSpec.
type scenarioJobSpec struct {
	Kind      string     `json:"kind"`
	Mechanism string     `json:"mechanism,omitempty"`
	Graph     *WireGraph `json:"graph,omitempty"`
	V         int        `json:"v,omitempty"`
	K         int        `json:"k,omitempty"`
	Grid      int        `json:"grid"`
	Members   []int      `json:"members,omitempty"`
	Families  []string   `json:"families,omitempty"`
	Count     int        `json:"count,omitempty"`
	N         int        `json:"n,omitempty"`
	Seed      int64      `json:"seed,omitempty"`
	Dist      string     `json:"dist,omitempty"`
	Cert      bool       `json:"cert,omitempty"`
	Total     int        `json:"total"`
}

// parseDist maps the wire weight-distribution name ("" = uniform) to the
// generator enum.
func parseDist(name string) (graph.WeightDist, error) {
	switch name {
	case "", "uniform":
		return graph.DistUniform, nil
	case "skewed":
		return graph.DistSkewed, nil
	case "powers":
		return graph.DistPowers, nil
	case "unit":
		return graph.DistUnit, nil
	}
	return 0, fmt.Errorf("unknown weight distribution %q (want uniform, skewed, powers, or unit)", name)
}

// topologyOptions rebuilds the engine options of a topology spec. The
// mechanism may be nil when only instance regeneration is needed.
func (spec *scenarioJobSpec) topologyOptions(m mechanism.Mechanism) (scenario.TopologyOptions, error) {
	dist, err := parseDist(spec.Dist)
	if err != nil {
		return scenario.TopologyOptions{}, err
	}
	return scenario.TopologyOptions{
		Families:  spec.Families,
		Count:     spec.Count,
		N:         spec.N,
		Grid:      spec.Grid,
		Seed:      spec.Seed,
		Dist:      dist,
		Mechanism: m,
	}, nil
}

// validateScenario resolves and validates a scenario request shared by the
// inline endpoint and job submission — kind, mechanism, graph/agent bounds,
// and the scan limits — answering 400 itself on failure. The returned spec
// has every default resolved and Total pinned; key is its content address:
// the mechanism-scoped instance key plus the scan parameters for
// graph-bound kinds, the full generator parameters for topology scans.
func (s *Server) validateScenario(w http.ResponseWriter, req *ScenarioRequest) (*scenarioJobSpec, string, bool) {
	m, ok := resolveWireMechanism(w, req.Mechanism)
	if !ok {
		return nil, "", false
	}
	spec, key, bad := scenarioSpec(req, m)
	if bad != nil {
		writeError(w, http.StatusBadRequest, bad.code, bad.msg)
		return nil, "", false
	}
	return spec, key, true
}

// badRequest is a 400 answer: its catalogue code and message.
type badRequest struct{ code, msg string }

// orDefault resolves a zero request field to its default.
func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func scenarioSpec(req *ScenarioRequest, m mechanism.Mechanism) (*scenarioJobSpec, string, *badRequest) {
	spec := &scenarioJobSpec{Kind: req.Kind, Mechanism: specMechanism(m), Cert: req.Cert}
	if req.Cert && req.Kind != "topology" {
		return nil, "", &badRequest{CodeCertLimit, "scenario certificates are only available for topology scans (the best ring point)"}
	}
	if req.Cert && !mechCertifiable(m) {
		return nil, "", &badRequest{CodeCertLimit, fmt.Sprintf("mechanism %q cannot build certificates", m.Name())}
	}
	switch req.Kind {
	case "ksybil":
		g, err := req.Graph.Build()
		if err != nil {
			return nil, "", &badRequest{CodeBadGraph, err.Error()}
		}
		if !g.IsRing() {
			return nil, "", &badRequest{CodeNotRing, "ksybil scenarios require a ring graph"}
		}
		if req.V < 0 || req.V >= g.N() {
			return nil, "", &badRequest{CodeBadAgent, fmt.Sprintf("agent %d out of range [0, %d)", req.V, g.N())}
		}
		k, grid := orDefault(req.K, 2), orDefault(req.Grid, 64)
		if k < minScenarioK || k > maxScenarioK {
			return nil, "", &badRequest{CodeScenarioLimit, fmt.Sprintf("k outside [%d, %d]", minScenarioK, maxScenarioK)}
		}
		if grid < 1 || grid > 4096 {
			return nil, "", &badRequest{CodeBadGrid, "grid outside [1, 4096]"}
		}
		total, err := scenario.KSybilTotal(grid, k, maxScenarioPoints)
		if err != nil {
			return nil, "", &badRequest{CodeBadGrid, err.Error()}
		}
		if total > maxScenarioPoints {
			return nil, "", &badRequest{CodeScenarioLimit, fmt.Sprintf("k-identity grid exceeds %d points", maxScenarioPoints)}
		}
		gCopy := req.Graph
		spec.Graph, spec.V, spec.K, spec.Grid, spec.Total = &gCopy, req.V, k, grid, total
		return spec, fmt.Sprintf("%s|v=%d|k=%d|grid=%d|ksybil", mechKey(g, m), spec.V, spec.K, spec.Grid), nil
	case "coalition":
		g, err := req.Graph.Build()
		if err != nil {
			return nil, "", &badRequest{CodeBadGraph, err.Error()}
		}
		if len(req.Members) < 2 || len(req.Members) > maxCoalitionMembers {
			return nil, "", &badRequest{CodeScenarioLimit, fmt.Sprintf("coalition needs between 2 and %d members, got %d", maxCoalitionMembers, len(req.Members))}
		}
		seen := make(map[int]bool, len(req.Members))
		for _, v := range req.Members {
			if v < 0 || v >= g.N() {
				return nil, "", &badRequest{CodeBadAgent, fmt.Sprintf("member %d out of range [0, %d)", v, g.N())}
			}
			if seen[v] {
				return nil, "", &badRequest{CodeBadAgent, fmt.Sprintf("member %d listed twice", v)}
			}
			seen[v] = true
		}
		grid := orDefault(req.Grid, 8)
		if grid < 1 {
			return nil, "", &badRequest{CodeBadGrid, "grid must be positive"}
		}
		total, err := scenario.CoalitionTotal(grid, len(req.Members), maxScenarioPoints)
		if err != nil {
			return nil, "", &badRequest{CodeScenarioLimit, err.Error()}
		}
		gCopy := req.Graph
		spec.Graph, spec.Members, spec.Grid, spec.Total = &gCopy, req.Members, grid, total
		return spec, fmt.Sprintf("%s|members=%s|grid=%d|coalition", mechKey(g, m), joinInts(spec.Members), spec.Grid), nil
	case "topology":
		fams := req.Families
		if len(fams) == 0 {
			fams = scenario.Families()
		}
		seen := make(map[string]bool, len(fams))
		for _, f := range fams {
			if !scenario.ValidFamily(f) {
				return nil, "", &badRequest{CodeUnknownTopology, fmt.Sprintf("unknown topology family %q (want one of %s)", f, strings.Join(scenario.Families(), ", "))}
			}
			if seen[f] {
				return nil, "", &badRequest{CodeBadBody, fmt.Sprintf("topology family %q listed twice", f)}
			}
			seen[f] = true
		}
		if spec.Cert && !seen[scenario.FamilyRing] {
			return nil, "", &badRequest{CodeCertLimit, "scenario certificates need the ring family in the scan"}
		}
		count, n, grid := orDefault(req.Count, 4), orDefault(req.N, 8), orDefault(req.Grid, 8)
		if count < 1 || count > maxTopologyCount {
			return nil, "", &badRequest{CodeScenarioLimit, fmt.Sprintf("topology count outside [1, %d]", maxTopologyCount)}
		}
		if n < 5 || n > maxTopologyN {
			return nil, "", &badRequest{CodeScenarioLimit, fmt.Sprintf("topology n outside [5, %d]", maxTopologyN)}
		}
		if grid < 2 || grid > maxTopologyGrid {
			return nil, "", &badRequest{CodeBadGrid, fmt.Sprintf("topology grid outside [2, %d]", maxTopologyGrid)}
		}
		dist := req.Dist
		if dist == "" {
			dist = "uniform"
		}
		if _, err := parseDist(dist); err != nil {
			return nil, "", &badRequest{CodeBadBody, err.Error()}
		}
		total := scenario.TopologyTotal(len(fams), count)
		if total > maxScenarioPoints {
			return nil, "", &badRequest{CodeScenarioLimit, fmt.Sprintf("topology scan exceeds %d instances", maxScenarioPoints)}
		}
		spec.Families, spec.Count, spec.N, spec.Grid = fams, count, n, grid
		spec.Seed, spec.Dist, spec.Total = req.Seed, dist, total
		key := fmt.Sprintf("f=%s|count=%d|n=%d|grid=%d|seed=%d|dist=%s|cert=%t",
			strings.Join(spec.Families, ","), spec.Count, spec.N, spec.Grid, spec.Seed, spec.Dist, spec.Cert)
		if spec.Mechanism != "" {
			key += ";m=" + spec.Mechanism
		}
		return spec, key + "|topology", nil
	case "":
		return nil, "", &badRequest{CodeBadBody, "missing scenario kind (want ksybil, coalition, or topology)"}
	}
	return nil, "", &badRequest{CodeBadBody, fmt.Sprintf("unknown scenario kind %q (want ksybil, coalition, or topology)", req.Kind)}
}

// joinInts renders an int vector in the comma-joined checkpoint form.
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// splitInts parses the comma-joined checkpoint form back to ints.
func splitInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("corrupt int vector %q: %w", s, err)
		}
		out[i] = n
	}
	return out, nil
}

// Scenario-job checkpoints reuse the sweep Point shape. For ksybil, W1
// carries the comma-joined composition and U the canonical utility; for
// coalition, W1 the digit vector and U a small JSON object with the joint
// and per-member utilities (so a resumed scan reconstructs the best point's
// attribution without re-evaluation); for topology, W1 the decimal global
// instance index and U the WireTopologyOutcome JSON. Each decoder checks
// the point's shape against the spec: a composition of k parts, a digit
// and a utility per coalition member.

func (spec *scenarioJobSpec) ksybilCodec() pointCodec[scenario.KSybilPoint] {
	return pointCodec[scenario.KSybilPoint]{
		encode: func(_ int, p scenario.KSybilPoint) (jobs.Point, error) {
			return jobs.Point{W1: joinInts(p.Comp), U: EncodeRat(p.U)}, nil
		},
		parse: func(p jobs.Point) (scenario.KSybilPoint, error) {
			comp, err := splitInts(p.W1)
			if err != nil {
				return scenario.KSybilPoint{}, err
			}
			if len(comp) != spec.K {
				return scenario.KSybilPoint{}, fmt.Errorf("composition %q has %d parts, want k = %d", p.W1, len(comp), spec.K)
			}
			u, err := DecodeRat(p.U)
			if err != nil {
				return scenario.KSybilPoint{}, fmt.Errorf("corrupt utility: %w", err)
			}
			return scenario.KSybilPoint{Comp: comp, U: u}, nil
		},
	}
}

// wireCoalitionCkpt is the U payload of a coalition checkpoint point.
type wireCoalitionCkpt struct {
	Joint   string   `json:"joint"`
	Members []string `json:"members"`
}

func (spec *scenarioJobSpec) coalitionCodec() pointCodec[scenario.CoalitionPoint] {
	return pointCodec[scenario.CoalitionPoint]{
		encode: func(_ int, p scenario.CoalitionPoint) (jobs.Point, error) {
			raw, err := json.Marshal(wireCoalitionCkpt{Joint: EncodeRat(p.Joint), Members: encodeRats(p.Members)})
			if err != nil {
				return jobs.Point{}, err
			}
			return jobs.Point{W1: joinInts(p.Digits), U: string(raw)}, nil
		},
		parse: func(p jobs.Point) (scenario.CoalitionPoint, error) {
			digits, err := splitInts(p.W1)
			if err != nil {
				return scenario.CoalitionPoint{}, err
			}
			if len(digits) != len(spec.Members) {
				return scenario.CoalitionPoint{}, fmt.Errorf("digit vector %q has %d digits, want %d members", p.W1, len(digits), len(spec.Members))
			}
			var ck wireCoalitionCkpt
			if err := json.Unmarshal([]byte(p.U), &ck); err != nil {
				return scenario.CoalitionPoint{}, fmt.Errorf("corrupt coalition point: %w", err)
			}
			if len(ck.Members) != len(spec.Members) {
				return scenario.CoalitionPoint{}, fmt.Errorf("coalition point carries %d member utilities, want %d", len(ck.Members), len(spec.Members))
			}
			joint, err := DecodeRat(ck.Joint)
			if err != nil {
				return scenario.CoalitionPoint{}, fmt.Errorf("corrupt joint utility: %w", err)
			}
			members, err := decodeRats("members", ck.Members)
			if err != nil {
				return scenario.CoalitionPoint{}, err
			}
			return scenario.CoalitionPoint{Digits: digits, Members: members, Joint: joint}, nil
		},
	}
}

func wireTopologyOutcome(out scenario.TopologyOutcome) WireTopologyOutcome {
	return WireTopologyOutcome{
		Family:     out.Family,
		Index:      out.Index,
		N:          out.N,
		M:          out.M,
		WorstV:     out.WorstV,
		WorstDigit: out.WorstDigit,
		Honest:     EncodeRat(out.Honest),
		Best:       EncodeRat(out.Best),
		Ratio:      EncodeRat(out.Ratio),
		Unbounded:  out.Unbounded,
	}
}

var topologyCodec = pointCodec[scenario.TopologyOutcome]{
	encode: func(i int, out scenario.TopologyOutcome) (jobs.Point, error) {
		raw, err := json.Marshal(wireTopologyOutcome(out))
		if err != nil {
			return jobs.Point{}, err
		}
		return jobs.Point{W1: strconv.Itoa(i), U: string(raw)}, nil
	},
	parse: func(p jobs.Point) (scenario.TopologyOutcome, error) {
		var wo WireTopologyOutcome
		if err := json.Unmarshal([]byte(p.U), &wo); err != nil {
			return scenario.TopologyOutcome{}, fmt.Errorf("corrupt topology outcome: %w", err)
		}
		out := scenario.TopologyOutcome{
			Family: wo.Family, Index: wo.Index, N: wo.N, M: wo.M,
			WorstV: wo.WorstV, WorstDigit: wo.WorstDigit, Unbounded: wo.Unbounded,
		}
		var err error
		for _, f := range []struct {
			s   string
			dst *numeric.Rat
		}{{wo.Honest, &out.Honest}, {wo.Best, &out.Best}, {wo.Ratio, &out.Ratio}} {
			if *f.dst, err = DecodeRat(f.s); err != nil {
				return scenario.TopologyOutcome{}, fmt.Errorf("corrupt topology outcome: %w", err)
			}
		}
		return out, nil
	},
}

func (spec *scenarioJobSpec) total() int { return spec.Total }

func (spec *scenarioJobSpec) check(i int, p jobs.Point) error {
	switch spec.Kind {
	case "ksybil":
		return spec.ksybilCodec().check(i, p)
	case "coalition":
		return spec.coalitionCodec().check(i, p)
	case "topology":
		return topologyCodec.check(i, p)
	}
	return fmt.Errorf("corrupt scenario spec: unknown kind %q", spec.Kind)
}

// run is the one execution path of the inline endpoint (start 0, no
// prefix, no checkpoints) and the durable job (resume from start with the
// checkpointed prefix, checkpointing every new point): the kind's scan
// (internal/scenario) through runScan, folded by the engine's own Fold
// over the combined prefix+tail — so both produce byte-identical bodies.
func (spec *scenarioJobSpec) run(ctx context.Context, s *Server, start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (any, error) {
	m, err := mechanism.Get(spec.Mechanism)
	if err != nil {
		return nil, fmt.Errorf("job spec mechanism: %w", err)
	}
	var g *graph.Graph
	if spec.Graph != nil {
		if g, err = spec.Graph.Build(); err != nil {
			return nil, fmt.Errorf("job spec graph: %w", err)
		}
	}
	resp := &ScenarioResponse{Kind: spec.Kind, Mechanism: m.Name()}
	switch spec.Kind {
	case "ksybil":
		kopts := scenario.KSybilOptions{K: spec.K, Grid: spec.Grid, Mechanism: m}
		if _, native := m.(mechanism.RingSweeper); native {
			// Native sweepers share the cached core.Instance with the inline
			// sweep/ratio endpoints (memoized pair evaluations).
			entry, hit := s.cache.entryFor(mechKey(g, m), g)
			s.metrics.cacheLookup("/v1/scenario#run", hit)
			if kopts.Instance, err = entry.instance(ctx, spec.V); err != nil {
				return nil, err
			}
		}
		sc, err := scenario.NewKSybilScan(ctx, g, spec.V, kopts)
		if err != nil {
			return nil, err
		}
		res, err := runScan(ctx, sc.Run, spec.ksybilCodec(), start, prefix, ckpt)
		if err != nil {
			return nil, err
		}
		kr, err := sc.Fold(res)
		if err != nil {
			return nil, err
		}
		resp.KSybil = wireKSybilResult(spec, kr)
	case "coalition":
		sc, err := scenario.NewCoalitionScan(ctx, g, scenario.CoalitionOptions{Members: spec.Members, Grid: spec.Grid, Mechanism: m})
		if err != nil {
			return nil, err
		}
		res, err := runScan(ctx, sc.Run, spec.coalitionCodec(), start, prefix, ckpt)
		if err != nil {
			return nil, err
		}
		cr, err := sc.Fold(res)
		if err != nil {
			return nil, err
		}
		resp.Coalition = wireCoalitionResult(spec, cr)
	case "topology":
		topts, err := spec.topologyOptions(m)
		if err != nil {
			return nil, fmt.Errorf("job spec dist: %w", err)
		}
		sc, err := scenario.NewTopologyScan(topts)
		if err != nil {
			return nil, err
		}
		res, err := runScan(ctx, sc.Run, topologyCodec, start, prefix, ckpt)
		if err != nil {
			return nil, err
		}
		tr := wireTopologyResult(spec, sc.Fold(res))
		if spec.Cert {
			if tr.Certificate, err = s.certifyTopologyBest(ctx, spec, res.Points); err != nil {
				return nil, fmt.Errorf("scenario certificate: %w", err)
			}
		}
		resp.Topology = tr
	default:
		return nil, fmt.Errorf("corrupt scenario spec: unknown kind %q", spec.Kind)
	}
	return resp, nil
}

// wireKSybilResult renders the engine's fold as the kind "ksybil" payload.
func wireKSybilResult(spec *scenarioJobSpec, r *scenario.KSybilResult) *ScenarioKSybilResult {
	out := &ScenarioKSybilResult{
		K: spec.K, Grid: spec.Grid, Total: spec.Total,
		Points:    make([]WireScenarioKSybilPoint, len(r.Points)),
		BestIndex: r.BestIndex, BestComp: r.BestComp, BestU: EncodeRat(r.BestU),
		Honest: EncodeRat(r.Honest), Ratio: EncodeRat(r.Ratio),
	}
	for i, p := range r.Points {
		out.Points[i] = WireScenarioKSybilPoint{Comp: p.Comp, U: EncodeRat(p.U)}
	}
	return out
}

// wireCoalitionResult renders the engine's fold as the kind "coalition"
// payload.
func wireCoalitionResult(spec *scenarioJobSpec, r *scenario.CoalitionResult) *ScenarioCoalitionResult {
	out := &ScenarioCoalitionResult{
		Grid: spec.Grid, Members: spec.Members, Total: spec.Total,
		Points:    make([]WireScenarioCoalitionPoint, len(r.Points)),
		BestIndex: r.BestIndex, BestDigits: r.BestDigits, BestJoint: EncodeRat(r.BestJoint),
		HonestJoint: EncodeRat(r.HonestJoint), JointRatio: EncodeRat(r.JointRatio),
		Honest: encodeRats(r.Honest),
	}
	for i, p := range r.Points {
		out.Points[i] = WireScenarioCoalitionPoint{Digits: p.Digits, Members: encodeRats(p.Members), Joint: EncodeRat(p.Joint)}
	}
	if len(r.Points) > 0 {
		out.BestMember, out.Gains, out.MemberRatios = encodeRats(r.BestMember), encodeRats(r.Gains), encodeRats(r.MemberRatios)
	}
	return out
}

// wireTopologyResult renders the engine's fold as the kind "topology"
// payload.
func wireTopologyResult(spec *scenarioJobSpec, r *scenario.TopologyResult) *ScenarioTopologyResult {
	out := &ScenarioTopologyResult{
		Families: spec.Families, Count: spec.Count, N: spec.N,
		Grid: spec.Grid, Seed: spec.Seed, Dist: spec.Dist, Total: spec.Total,
		Outcomes: make([]WireTopologyOutcome, len(r.Outcomes)),
	}
	for i, o := range r.Outcomes {
		out.Outcomes[i] = wireTopologyOutcome(o)
	}
	for _, s := range r.Summaries {
		out.Summaries = append(out.Summaries, WireFamilySummary{
			Family: s.Family, Count: s.Count, WorstIndex: s.WorstIndex,
			WorstRatio: EncodeRat(s.WorstRatio), Unbounded: s.Unbounded,
		})
	}
	return out
}

// certifyTopologyBest builds the BD ratio certificate of a topology scan's
// best ring point: the ring family's worst bounded instance (the earliest
// maximum ratio) is regenerated exactly (TopologyInstance), its worst
// vertex is optimized on the scan grid, and the certificate is
// self-checked before attachment.
func (s *Server) certifyTopologyBest(ctx context.Context, spec *scenarioJobSpec, outcomes []scenario.TopologyOutcome) (*cert.RatioCert, error) {
	var rings []scenario.TopologyOutcome
	for _, o := range outcomes {
		if o.Family == scenario.FamilyRing && !o.Unbounded {
			rings = append(rings, o)
		}
	}
	i := scan.Best(rings, func(a, b scenario.TopologyOutcome) bool { return a.Ratio.Less(b.Ratio) })
	if i < 0 {
		return nil, fmt.Errorf("scan covered no certifiable ring instance")
	}
	worst := rings[i]
	opts, err := spec.topologyOptions(nil)
	if err != nil {
		return nil, err
	}
	g, _, err := scenario.TopologyInstance(opts, worst.Index)
	if err != nil {
		return nil, err
	}
	v := worst.WorstV
	if v < 0 {
		v = 0
	}
	in, err := core.NewInstanceCtx(ctx, g, v)
	if err != nil {
		return nil, err
	}
	opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: spec.Grid})
	if err != nil {
		return nil, err
	}
	rc, err := build.Ratio(ctx, in, opt)
	if err != nil {
		return nil, err
	}
	if err := s.certify(rc); err != nil {
		return nil, err
	}
	return rc, nil
}

// handleScenario is POST /v1/scenario: the inline strategic-manipulation
// scan. For long grids, submit a kind ksybil/coalition/topology job instead
// — same validation, same final body, durable across restarts.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	var req ScenarioRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if spec, _, ok := s.validateScenario(w, &req); ok {
		s.runInline(w, r, spec)
	}
}

// submitScenarioJob validates a kind ksybil/coalition/topology job. The
// scenario parameters ride in the Scenario field of the job submission;
// its kind, when set, must agree with the job kind.
func submitScenarioJob(s *Server, w http.ResponseWriter, _ *http.Request, req *JobSubmitRequest) (jobSpec, string, bool) {
	var sr ScenarioRequest
	if req.Scenario != nil {
		sr = *req.Scenario
	}
	if sr.Kind == "" {
		sr.Kind = req.Kind
	}
	if sr.Kind != req.Kind {
		writeError(w, http.StatusBadRequest, CodeBadBody,
			fmt.Sprintf("job kind %q conflicts with scenario kind %q", req.Kind, sr.Kind))
		return nil, "", false
	}
	return s.validateScenario(w, &sr)
}
