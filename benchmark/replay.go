package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cfu"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/cosim"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/hdl"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/mdes"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// hdlCosimTrials is the per-datapath trial count iscd's /v1/hdl spends; the
// replay must spend the same to reproduce its bodies.
const hdlCosimTrials = 64

// probeHits is how many cached requests the traced run times through the
// hit path.
const probeHits = 100

// job is one input of the traced replay: a program, named or as iscasm
// text, selected at one or more budgets.
type job struct {
	req     request
	budgets []int
	// corpus is the exploration corpus the workload runs with (nil = none).
	corpus *corpus.Corpus
	// wantSpeedups and wantBody are outputs the replay must reproduce: the
	// speedup at each budget, and the body of req.kind served at the last
	// budget. nil means unchecked.
	wantSpeedups []float64
	wantBody     []byte
}

// jobOut is what replaying one job produced.
type jobOut struct {
	speedups []float64
	// customize and hdl are the /v1/customize and /v1/hdl bodies of the
	// last budget's selection.
	customize, hdl []byte
	datapaths      int
	// pipeline is the time from exploration through the last compile, and
	// service the time from resolving the request to its req.kind body.
	pipeline, service time.Duration
	// replayed records that exploration found every block in the corpus.
	replayed bool
}

// replayJob runs one job through each layer's public function in pipeline
// order: the service front end, then explore, combine, and per budget
// select, MDES and compile, then the last selection's /v1/customize body
// and its hardware export. Every call sits in a span under parent when rec
// is non-nil; tel, when non-nil, collects the layers' own counters.
func replayJob(j job, id, parent int, rec *recorder, tel *telemetry.Registry) (jobOut, error) {
	var out jobOut
	var err error
	start := time.Now()
	do := func(name string, fn func()) { rec.do(name, parent, id, fn) }
	lib := hwlib.Default()

	var p *ir.Program
	do("server.resolve", func() { p, _, err = server.Resolve(server.Request{Benchmark: j.req.bench, Program: j.req.program}) })
	if err != nil {
		return out, fmt.Errorf("%v: resolve: %w", j.req, err)
	}
	do("ir.validate", func() { err = ir.Validate(p) })
	if err != nil {
		return out, fmt.Errorf("%v: validate: %w", j.req, err)
	}
	do("ir.fingerprint", func() { ir.Fingerprint(p) })
	body := j.req.body()
	do("cluster.parse", func() { _, _, err = cluster.ParseRequest(body, 0) })
	if err != nil {
		return out, fmt.Errorf("%v: parse: %w", j.req, err)
	}

	t0 := time.Now()
	ecfg := explore.DefaultConfig(lib)
	ecfg.Corpus, ecfg.Telemetry = j.corpus, tel
	var res *explore.Result
	do("explore", func() { res = explore.Explore(p, ecfg) })
	out.replayed = res.Stats.CorpusHits > 0 && res.Stats.CorpusMisses == 0
	var cands []*cfu.CFU
	do("combine", func() { cands, _ = cfu.CombinePartial(res, lib, cfu.CombineOptions{Telemetry: tel}) })
	var m *mdes.MDES
	var rep *compile.Report
	for _, b := range j.budgets {
		var sel *cfu.Selection
		do("select", func() { sel = cfu.Select(cands, cfu.SelectOptions{Budget: float64(b), Lib: lib, Telemetry: tel}) })
		do("mdes", func() { m = mdes.FromSelection(p.Name, float64(b), sel) })
		do("compile", func() { _, rep, err = compile.Compile(p, m, compile.Options{Lib: lib, Telemetry: tel}) })
		if err != nil {
			return out, fmt.Errorf("%v: compile at budget %d: %w", j.req, b, err)
		}
		out.speedups = append(out.speedups, rep.Speedup)
	}
	out.pipeline = time.Since(t0)

	do("server.encode", func() { out.customize, err = encodeCustomize(m, rep) })
	if err != nil {
		return out, err
	}
	out.service = time.Since(start)
	out.hdl, out.datapaths, err = exportHDL(m, lib, do)
	if err != nil {
		return out, fmt.Errorf("%v: %w", j.req, err)
	}
	if j.req.kind == "hdl" {
		out.service = time.Since(start)
	}
	return out, nil
}

// exportHDL renders a selection's /v1/hdl body as iscd does: each datapath
// lowered to a netlist and co-simulated, then Verilog and the ISA spec. It
// mirrors Server.runHDL in internal/server/hdl.go (the co-simulation seeds
// and trial count, the memory skip, the JSON framing), which keeps its
// renderer unexported; a change there shows here as replay failures.
func exportHDL(m *mdes.MDES, lib *hwlib.Library, do func(string, func())) ([]byte, int, error) {
	var err error
	resp := server.HDLResponse{Source: m.Source, Budget: m.Budget, Truncated: m.Truncated}
	datapaths := 0
	for i := range m.CFUs {
		spec := &m.CFUs[i]
		info := server.HDLCFU{Name: spec.Name, Module: hdl.ModuleName(spec.Name), Area: spec.Area, Latency: spec.Latency}
		for vi, shape := range append([]*graph.Shape{spec.Shape}, spec.Variants...) {
			if shape.UsesMemory() {
				info.Memory = true
				continue
			}
			var n *hdl.Netlist
			do("hdl.netlist", func() { n, err = hdl.BuildNetlist(info.Module, shape, lib) })
			if err != nil {
				return nil, 0, fmt.Errorf("lowering %s variant %d: %w", spec.Name, vi, err)
			}
			do("cosim", func() {
				err = cosim.CheckNetlist(n, shape, cosim.Options{Trials: hdlCosimTrials, Seed: int64(i*131 + vi)})
			})
			if err != nil {
				return nil, 0, fmt.Errorf("co-simulation of %s variant %d: %w", spec.Name, vi, err)
			}
			info.Datapaths++
		}
		if info.Datapaths > 0 {
			info.Cosim, info.Trials = "pass", hdlCosimTrials
		} else {
			info.Cosim = "skipped (memory)"
		}
		datapaths += info.Datapaths
		resp.CFUs = append(resp.CFUs, info)
	}
	do("hdl.emit", func() {
		var verilog, isa bytes.Buffer
		if err = hdl.EmitMDES(&verilog, m, lib); err != nil {
			return
		}
		var spec *hdl.ISASpec
		if spec, err = hdl.MapISA(m); err != nil {
			return
		}
		if err = spec.Write(&isa); err != nil {
			return
		}
		resp.Verilog, resp.ISA, resp.Extension = verilog.String(), isa.String(), spec.Name
	})
	if err != nil {
		return nil, 0, err
	}
	var b []byte
	do("server.encode", func() { b, err = json.MarshalIndent(resp, "", "  ") })
	return append(b, '\n'), datapaths, err
}

// traceOut is what the traced part of a -trace 1 run produced.
type traceOut struct {
	metrics   map[string]float64
	rec       *recorder
	attempted int
	failures  []error
}

// traceRun replays each of the workload's jobs twice, one call at a time:
// untraced (for experiment.serial_s and the tracing overhead), and inside
// spans under a "replay" root span with the layers' telemetry attached. The
// two replays of a job run back to back, in alternating order, so drift
// over the run does not bias the overhead. It checks that both replays
// produced the same bytes and the expected ones, times the hit path, and
// computes the per-layer metrics together with the measured phase's
// counters.
func traceRun(w workload, refs *references, ph *phase) (*traceOut, error) {
	jobs := w.jobs()
	tr := &traceOut{metrics: map[string]float64{}, rec: newRecorder(), attempted: len(jobs) + probeHits}
	tel := telemetry.New("benchmark")
	plain, traced := make([]jobOut, len(jobs)), make([]jobOut, len(jobs))
	var serial, untraced, tracedWall time.Duration
	var roots []int
	for i, j := range jobs {
		var errs [2]error
		for k := 0; k < 2; k++ {
			t0 := time.Now()
			if (i+k)%2 == 0 {
				plain[i], errs[0] = replayJob(j, i+1, 0, nil, nil)
				untraced += time.Since(t0)
				serial += plain[i].pipeline
			} else {
				root := tr.rec.start("replay", 0, i+1)
				traced[i], errs[1] = replayJob(j, i+1, root, tr.rec, tel)
				tr.rec.end(root)
				tracedWall += time.Since(t0)
				roots = append(roots, root)
			}
		}
		if err := errors.Join(errs[:]...); err != nil {
			tr.failures = append(tr.failures, err)
			continue
		}
		tr.failures = append(tr.failures, checkJob(j, plain[i], traced[i], refs)...)
	}

	hp, err := w.probe()
	if err != nil {
		return nil, err
	}
	defer hp.close()
	hits, err := hp.time(probeHits)
	if err != nil {
		tr.failures = append(tr.failures, err)
	}
	var replicaMS, hopMS []float64
	routedMS := map[string][]float64{}
	for _, h := range hits {
		replicaMS, hopMS = append(replicaMS, h.replica), append(hopMS, h.routed-h.replica)
		routedMS[h.input] = append(routedMS[h.input], h.routed)
	}

	self := selfTimes(tr.rec.spans)
	sumSelf := func(name string) float64 {
		var ns int64
		for _, s := range tr.rec.spans {
			if s.Name == name {
				ns += self[s.ID]
			}
		}
		return float64(ns) / 1e9
	}
	calls := func(name string) float64 {
		n := 0
		for _, s := range tr.rec.spans {
			if s.Name == name {
				n++
			}
		}
		return float64(n)
	}
	medianMS := func(name string) float64 {
		var d []float64
		for _, s := range tr.rec.spans {
			if s.Name == name {
				d = append(d, float64(s.EndNS-s.StartNS)/1e6)
			}
		}
		return median(d)
	}
	snap := tel.Snapshot()
	c := snap.Counters
	spanWall := func(name string) float64 {
		for _, s := range snap.Spans {
			if s.Name == name {
				return float64(s.WallNS) / 1e9
			}
		}
		return 0
	}
	datapaths := 0
	replayedJob := map[int]bool{}
	missService, hitService := map[string]float64{}, map[string]float64{}
	for i, o := range traced {
		datapaths += o.datapaths
		replayedJob[i+1] = o.replayed
		missService[jobs[i].req.String()] = ms(plain[i].service)
	}
	for input, d := range routedMS {
		hitService[input] = median(d)
	}
	var replayNS int64
	for _, s := range tr.rec.spans {
		if s.Name == "explore" && replayedJob[s.Request] {
			replayNS += self[s.ID]
		}
	}
	// queue is each measured request's latency minus its input's service
	// time: the hit path's routed time for a cache hit, the untraced
	// replay's time for a miss.
	var queue []float64
	for _, o := range ph.ops {
		svc, ok := missService[o.input]
		if o.hit {
			svc, ok = hitService[o.input]
		}
		if o.err == nil && ok {
			queue = append(queue, ms(o.latency)-svc)
		}
	}
	var cs corpus.Stats
	if jobs[0].corpus != nil {
		cs = jobs[0].corpus.Stats()
	}
	var lags []float64
	for _, o := range ph.ops {
		lags = append(lags, ms(o.lag))
	}
	sort.Float64s(lags)
	parallelism := 0.0
	if ph.sweepMedian > 0 {
		parallelism = serial.Seconds() / ph.sweepMedian.Seconds()
	}
	replacements := c["compile.replacements.exact"] + c["compile.replacements.variant"]
	cacheHits, cacheMisses := ph.counts["server.cache.hit"], ph.counts["server.cache.miss"]
	var rootSelf, rootWall int64
	for _, id := range roots {
		s := tr.rec.spans[id-1]
		rootSelf += self[id]
		rootWall += s.EndNS - s.StartNS
	}

	m := tr.metrics
	m["explore.self_s"] = sumSelf("explore")
	m["explore.calls"] = calls("explore")
	m["explore.examined"] = float64(c["explore.subgraphs.examined"])
	m["explore.pruned"] = float64(c["explore.directions.pruned"])
	m["explore.recorded"] = float64(c["explore.candidates.recorded"])
	m["explore.yield"] = ratio(c["explore.candidates.recorded"], c["explore.subgraphs.examined"])
	m["corpus.hits"] = float64(cs.Hits)
	m["corpus.misses"] = float64(cs.Misses)
	m["corpus.inserts"] = float64(cs.Inserts)
	m["corpus.hit_ratio"] = ratio(cs.Hits, cs.Hits+cs.Misses)
	m["explore.replay_s"] = float64(replayNS) / 1e9
	m["combine.self_s"] = sumSelf("combine")
	m["combine.cands_in"] = float64(c["combine.candidates.in"])
	m["combine.cfus_out"] = float64(c["combine.cfus.out"])
	m["select.self_s"] = sumSelf("select")
	m["select.calls"] = calls("select")
	m["select.considered"] = float64(c["select.considered"])
	m["select.rounds"] = float64(c["select.rounds"])
	m["select.selected"] = float64(c["select.selected"])
	m["select.yield"] = ratio(c["select.selected"], c["select.considered"])
	m["mdes.self_s"] = sumSelf("mdes")
	m["compile.match_s"] = spanWall("compile.match")
	m["compile.schedule_s"] = spanWall("compile.schedule")
	m["compile.self_s"] = sumSelf("compile") - m["compile.match_s"] - m["compile.schedule_s"]
	m["compile.replacements"] = float64(replacements)
	m["match.seeds_considered"] = float64(c["match.seeds.considered"])
	m["match.yield"] = ratio(replacements, c["match.seeds.considered"])
	m["hdl.netlist_s"] = sumSelf("hdl.netlist")
	m["cosim.self_s"] = sumSelf("cosim")
	m["cosim.datapaths"] = float64(datapaths)
	m["hdl.emit_s"] = sumSelf("hdl.emit")
	m["ir.validate_ms"] = medianMS("ir.validate")
	m["ir.fingerprint_ms"] = medianMS("ir.fingerprint")
	m["server.resolve_ms"] = medianMS("server.resolve")
	m["cluster.parse_ms"] = medianMS("cluster.parse")
	m["server.handle_hit_ms"] = median(replicaMS)
	m["server.cache_hit_ratio"] = ratio(cacheHits, cacheHits+cacheMisses)
	m["server.coalesced"] = float64(ph.counts["server.coalesced"])
	m["server.queue_ms"] = median(queue)
	m["cluster.hop_ms"] = median(hopMS)
	m["cluster.retries"] = float64(ph.counts[telemetry.CounterRetry])
	m["cluster.failovers"] = float64(ph.counts[telemetry.CounterFailover])
	m["cluster.shed"] = float64(ph.counts[telemetry.CounterShed])
	m["cluster.degraded"] = float64(ph.counts[telemetry.CounterDegraded])
	m["experiment.serial_s"] = serial.Seconds()
	m["experiment.parallelism"] = parallelism
	m["gen.lag_p99_ms"] = percentile(lags, 99)
	m["trace.overhead_pct"] = 100 * (tracedWall.Seconds() - untraced.Seconds()) / untraced.Seconds()
	m["trace.unattributed_pct"] = 100 * float64(rootSelf) / float64(rootWall)
	return tr, nil
}

// checkJob compares a job's untraced and traced outputs with each other
// and with everything the job is expected to reproduce.
func checkJob(j job, plain, traced jobOut, refs *references) []error {
	var errs []error
	if !slices.Equal(plain.speedups, traced.speedups) || !bytes.Equal(plain.customize, traced.customize) || !bytes.Equal(plain.hdl, traced.hdl) {
		errs = append(errs, fmt.Errorf("%v: traced replay differs from the untraced one", j.req))
	}
	if j.wantSpeedups != nil && !slices.Equal(traced.speedups, j.wantSpeedups) {
		errs = append(errs, fmt.Errorf("%v: replayed speedups %v, the sweep's %v", j.req, traced.speedups, j.wantSpeedups))
	}
	last := j.budgets[len(j.budgets)-1]
	if j.req.bench != "" {
		for _, e := range []error{
			refs.checkBody("customize", j.req.bench, last, traced.customize),
			refs.checkBody("hdl", j.req.bench, last, traced.hdl),
		} {
			if e != nil {
				errs = append(errs, fmt.Errorf("replay: %w", e))
			}
		}
	}
	got := traced.customize
	if j.req.kind == "hdl" {
		got = traced.hdl
	}
	if j.wantBody != nil && !bytes.Equal(got, j.wantBody) {
		errs = append(errs, fmt.Errorf("%v: replayed body differs from the served one", j.req))
	}
	return errs
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
