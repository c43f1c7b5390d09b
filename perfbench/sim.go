package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simWorkload is a closed-loop simulator workload: build each listed
// engine's cluster, run it over a fixed virtual window, and check the
// deterministic outputs.
type simWorkload struct {
	name     string
	gen      string  // workload registry name
	theta    float64 // Zipf skew; 0 keeps the registry's key choice
	nodes    int
	workers  int // per node
	samples  int // offline detection sample size
	durable  bool
	engines  []string // built and run in this order
	warmup   sim.Time
	measure  sim.Time
	needGain bool // P4DB must beat the first engine's simulated throughput
}

var simSpecs = []simWorkload{
	{
		// The paper's headline comparison and the set-up-heavy workload:
		// the No-Switch build misses the detection cache (populate,
		// detection, max-cut layout), the P4DB build hits it. No-Switch
		// runs the lock-abort path, P4DB the switch multipass path, and
		// Durable makes the WAL retain records.
		name: "tpcc-pair", gen: "tpcc",
		nodes: 8, workers: 20, samples: 100000, durable: true,
		engines: []string{"noswitch", "p4db"},
		warmup:  1 * sim.Millisecond, measure: 10 * sim.Millisecond,
		needGain: true,
	},
	{
		// Almost no set-up; 512 workers keep the event heap deep, so the
		// run is the scheduler, the lock tables and the cold path. A
		// set-up-only or WAL change predicts no change here.
		name: "ycsb-zipf-n128", gen: "ycsb-a", theta: 0.9,
		nodes: 128, workers: 4, samples: 4000,
		engines: []string{"p4db"},
		warmup:  1 * sim.Millisecond, measure: 5 * sim.Millisecond,
	},
}

func (s simWorkload) spec() *workloadSpec {
	return &workloadSpec{
		name: s.name,
		sizes: map[string]any{
			"workload": s.gen, "theta": s.theta, "nodes": s.nodes, "workers_per_node": s.workers,
			"sample_txns": s.samples, "durable": s.durable, "engines": s.engines,
			"warmup_us": s.warmup.Seconds() * 1e6, "measure_us": s.measure.Seconds() * 1e6,
		},
		run: s.runOnce,
	}
}

// runOnce is one child repeat: every engine's set-up and run, timed
// from outside the public calls, with the outputs checked afterwards.
func (s simWorkload) runOnce(seed uint64, traced bool, outDir string) (res *childResult) {
	res = &childResult{Traced: traced, Attempted: 1, Counts: map[string]float64{}}
	defer func() {
		if r := recover(); r != nil {
			res.Failed = 1
			res.Errors = append(res.Errors, fmt.Sprintf("%s panicked: %v", s.name, r))
		}
	}()
	prof := newProfiler(traced, outDir)
	var setupS, runS float64
	var fp strings.Builder
	var committed int64
	ktps := map[string]float64{}
	for i, eng := range s.engines {
		must(prof.start())
		t0 := time.Now()
		gen, err := workload.ByNameTheta(s.gen, s.nodes, s.theta)
		must(err)
		cfg := core.DefaultConfig()
		cfg.Engine = eng
		cfg.Nodes = s.nodes
		cfg.WorkersPerNode = s.workers
		cfg.SampleTxns = s.samples
		cfg.Durable = s.durable
		cfg.Seed = seed
		c := core.NewCluster(cfg, gen)
		setupS += time.Since(t0).Seconds()
		must(prof.stop("setup", 1))

		last := i == len(s.engines)-1
		if last {
			prof.recordHeap()
		}

		must(prof.start())
		t1 := time.Now()
		r := c.Run(s.warmup, s.measure)
		runS += time.Since(t1).Seconds()
		must(prof.stop("run", 1))

		if last {
			addShape(res.Counts, c, s.nodes)
		}
		cc := readCounts(c, s.nodes)
		cc.addTo(res.Counts, r)
		committed += r.Counters.Committed()
		ktps[eng] = r.Throughput() / 1e3
		if eng == "p4db" {
			res.TxnKtps = r.Throughput() / 1e3
			res.Counts["sim_p99_us"] = float64(r.Latency.Percentile(99)) / 1e3
		}
		fmt.Fprintf(&fp, "%s hot=%d warm=%d cold=%d aborts=%d events=%d pisa=%+v lock=%+v wal=%d/%d digest=%s; ",
			eng, r.Counters.CommittedHot, r.Counters.CommittedWarm, r.Counters.CommittedCold, r.Counters.Aborts,
			r.Events, cc.sw, cc.lock, cc.walSwitch, cc.walCold, c.StateDigest())
	}
	res.Setups = []float64{setupS}
	res.Runs = []float64{runS}
	res.Fingerprint = fp.String()
	res.TracedOnly = prof.tracedOnly()
	dc := core.DetectCacheStats()
	res.Counts["core.detect_cache_hits"] = float64(dc.Hits)
	res.Counts["core.detect_cache_misses"] = float64(dc.Misses)
	if committed > 0 {
		res.Counts["sim.events_per_commit"] = res.Counts["sim.events"] / float64(committed)
	}
	finishRatios(res.Counts)
	if s.needGain {
		gain := ktps["p4db"] / ktps[s.engines[0]]
		res.Counts["sim_speedup_x"] = gain
		if !(gain > 1) {
			res.Failed = 1
			res.Errors = append(res.Errors, fmt.Sprintf("%s: P4DB speed-up over %s is %.3fx, want > 1", s.name, s.engines[0], gain))
		}
	}
	return res
}

// clusterCounts are one cluster's layer counters, read after its run.
type clusterCounts struct {
	lock               lock.Stats
	sw                 pisa.Stats
	walSwitch, walCold int
}

func readCounts(c *core.Cluster, nodes int) clusterCounts {
	cc := clusterCounts{sw: c.Switch().Stats}
	for n := 0; n < nodes; n++ {
		node := c.Node(n)
		st := node.Locks().Stats
		cc.lock.Acquired += st.Acquired
		cc.lock.Conflicts += st.Conflicts
		cc.lock.Waits += st.Waits
		cc.lock.Aborts += st.Aborts
		cc.walSwitch += len(node.Log().SwitchRecords())
		cc.walCold += len(node.Log().ColdRecords())
	}
	return cc
}

// addTo adds the counters and the run's result to the per-layer counts.
func (cc clusterCounts) addTo(counts map[string]float64, r *core.Result) {
	counts["sim.events"] += float64(r.Events)
	counts["lock.acquired"] += float64(cc.lock.Acquired)
	counts["lock.conflicts"] += float64(cc.lock.Conflicts)
	counts["lock.waits"] += float64(cc.lock.Waits)
	counts["lock.aborts"] += float64(cc.lock.Aborts)
	counts["pisa.txns"] += float64(cc.sw.Txns)
	counts["pisa.single_pass"] += float64(cc.sw.SinglePass)
	counts["pisa.recircs"] += float64(cc.sw.Recircs)
	counts["pisa.holder_passes"] += float64(cc.sw.HolderPasses)
	counts["wal.switch_records"] += float64(cc.walSwitch)
	counts["wal.cold_records"] += float64(cc.walCold)
	counts["engine.commits_hot"] += float64(r.Counters.CommittedHot)
	counts["engine.commits_warm"] += float64(r.Counters.CommittedWarm)
	counts["engine.commits_cold"] += float64(r.Counters.CommittedCold)
	counts["engine.aborts"] += float64(r.Counters.Aborts)
}

// addShape records the size of a cluster after its run: stored rows
// (stores materialize rows lazily), offloaded and laid-out tuples.
func addShape(counts map[string]float64, c *core.Cluster, nodes int) {
	rows := 0
	for n := 0; n < nodes; n++ {
		st := c.Node(n).Store()
		for _, id := range st.TableIDs() {
			rows += st.Table(id).Rows()
		}
	}
	counts["store.rows"] = float64(rows)
	counts["hotset.on_switch"] = float64(c.HotIndex().OnSwitchCount())
	counts["layout.tuples"] = float64(c.Layout().NumTuples())
}

// finishRatios derives the ratio counters from the summed counts.
func finishRatios(counts map[string]float64) {
	if t := counts["pisa.txns"]; t > 0 {
		counts["pisa.single_pass_frac"] = counts["pisa.single_pass"] / t
	}
	delete(counts, "pisa.single_pass")
	commits := counts["engine.commits_hot"] + counts["engine.commits_warm"] + counts["engine.commits_cold"]
	if att := commits + counts["engine.aborts"]; att > 0 {
		counts["engine.commit_ratio"] = commits / att
	}
}
