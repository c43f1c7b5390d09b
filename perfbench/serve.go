package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/txnwire"
	"repro/internal/workload"
)

// The serving workload: an in-process server (P4DB, YCSB-A, 4 nodes, the
// p4db-serve defaults) on a loopback listener, driven over two
// connections. Closed-loop bursts of a fixed size measure how fast the
// server finishes fixed work; an open-loop ladder of three offered rates
// measures latency from each request's due send time, so a generator or
// server stall counts against every request it delays.
const (
	serveWorkload = "ycsb-a"
	serveNodes    = 4
	serveSamples  = 12000
	serveSlots    = 256
	serveConns    = 2
	serveSetups   = 15    // server.New repeats; setup_s is their median
	burstTxns     = 20000 // per burst, over all connections
	warmBursts    = 4     // untimed: the server's stores and pools fill up
	bursts        = 16
	burstWindow   = 32 // outstanding requests per connection in a burst
	// ladderWindow bounds a connection's outstanding requests in the
	// open-loop ladder. Past saturation the server's batches grow without
	// bound and each takes longer to drain than the last; the window keeps
	// an overloaded rung from taking minutes. A request waiting for the
	// window is late, and its latency still counts from its due time.
	ladderWindow = 128
	// Latency limit on a rung's p99 for max_rate_ktps.
	p99Limit = 10 * time.Millisecond
	// latWindow is the span of due times one p99 sample covers; a rung's
	// p99 is the median over its windows, so one stall of the shared host
	// moves one window, not the rung.
	latWindow = 500 * time.Millisecond
	// rungLen is how long each ladder rate is offered.
	rungLen = 1500 * time.Millisecond
	// replyTimeout bounds the wait for a phase's last replies.
	replyTimeout = 20 * time.Second
)

// ladder is the open-loop offered load, in txn/s over all connections,
// from light load to just under saturation.
var ladder = []struct {
	name string
	rate float64
}{{"low", 5000}, {"mid", 12000}, {"high", 20000}}

func serveSpec() *workloadSpec {
	rates := map[string]float64{}
	for _, r := range ladder {
		rates[r.name] = r.rate
	}
	return &workloadSpec{
		name: "serve-ycsb",
		sizes: map[string]any{
			"workload": serveWorkload, "engine": "p4db", "nodes": serveNodes, "sample_txns": serveSamples,
			"conns": serveConns, "setups": serveSetups, "burst_txns": burstTxns, "warm_bursts": warmBursts, "bursts": bursts,
			"burst_window": burstWindow, "ladder_txn_per_s": rates, "p99_limit_ms": p99Limit.Seconds() * 1e3,
			"rung_seconds": rungLen.Seconds(), "ladder_window": ladderWindow,
		},
		run: runServe,
	}
}

func runServe(seed uint64, traced bool, outDir string) (res *childResult) {
	res = &childResult{Traced: traced, Counts: map[string]float64{}}
	defer func() {
		if r := recover(); r != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("serve-ycsb: %v", r))
		}
	}()
	prof := newProfiler(traced, outDir)

	cfg := core.DefaultConfig()
	cfg.Nodes = serveNodes
	cfg.WorkersPerNode = 1
	cfg.SampleTxns = serveSamples
	cfg.Switch.SlotsPerArray = serveSlots
	cfg.Seed = seed
	var s *server.Server
	must(prof.start())
	for i := 0; i < serveSetups; i++ {
		// Each set-up starts from a collected heap, so the garbage of the
		// previous one does not decide when this one's GC runs.
		runtime.GC()
		t0 := time.Now()
		var err error
		s, err = server.New(server.Config{Core: cfg, Workload: serveWorkload})
		must(err)
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
	}
	must(prof.stop("setup", 1.0/serveSetups))
	prof.recordHeap()

	// Requests each connection sends, which sizes its reply bookkeeping.
	total := (warmBursts + bursts) * burstTxns / serveConns
	for _, r := range ladder {
		total += int(r.rate / serveConns * rungLen.Seconds())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	serveErr := make(chan error, 1)
	must(prof.start())
	serveStart := time.Now()
	go func() { serveErr <- s.Serve(ln) }()
	clients := make([]*client, serveConns)
	for i := range clients {
		clients[i], err = dial(ln.Addr().String(), seed, i, total)
		must(err)
	}
	// From here on the server holds connections; shut it down on every
	// path so the child never leaves goroutines or sockets behind.
	shut := false
	defer func() {
		if !shut {
			s.Shutdown()
			<-serveErr
		}
	}()

	// Closed-loop bursts: run_s is the wall time to commit burstTxns.
	for b := 0; b < warmBursts+bursts; b++ {
		runtime.GC()
		t0 := time.Now()
		failed := eachClient(clients, func(_ int, c *client) error { return c.burst(burstTxns/serveConns, burstWindow) })
		if failed != nil {
			panic(failed)
		}
		if b >= warmBursts {
			res.Runs = append(res.Runs, time.Since(t0).Seconds())
		}
	}
	res.TxnKtps = burstTxns / median(res.Runs) / 1e3

	// Open-loop ladder.
	var late, sendDur []time.Duration
	for _, r := range ladder {
		rs := runRung(clients, r.rate, rungLen)
		late = append(late, rs.late...)
		sendDur = append(sendDur, rs.sendDur...)
		res.Counts["p50_ms."+r.name] = rs.p50.Seconds() * 1e3
		res.Counts["p99_ms."+r.name] = rs.p99.Seconds() * 1e3
		if rs.p99 <= p99Limit && !rs.backlog && rs.failed == 0 {
			res.Counts["max_rate_ktps"] = r.rate / 1e3
		}
	}
	res.Counts["client.gen_late_p99_us"] = percentile(late, 99).Seconds() * 1e6
	res.Counts["client.send_us"] = percentile(sendDur, 50).Seconds() * 1e6

	// Half-close every connection: the server answers what it holds and
	// closes, so each receiver ends at EOF.
	var sent, commits, bad int64
	for _, c := range clients {
		must(c.cl.CloseWrite())
		<-c.recvDone
		if c.recvErr != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("receive: %v", c.recvErr))
		}
		sent += c.sent
		commits += c.commits.Load()
		bad += c.bad.Load()
		bad += c.sent - c.recvd.Load() // unanswered
	}
	shut = true
	s.Shutdown()
	must(<-serveErr)
	wall := time.Since(serveStart)
	must(prof.stop("serve", 1))
	res.TracedOnly = prof.tracedOnly()

	st := s.Stats()
	res.Attempted = sent
	res.Failed += bad
	if bad > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("%d of %d requests rejected, duplicated or unanswered", bad, sent))
	}
	if commits != st.Commits || st.Rejected != 0 {
		res.Failed++
		res.Errors = append(res.Errors, fmt.Sprintf("client saw %d commits, server %d commits and %d rejections", commits, st.Commits, st.Rejected))
	}
	res.Counts["server.retries"] = float64(st.Retries)
	res.Counts["server.rejected"] = float64(st.Rejected)
	c := s.Cluster()
	res.Counts["server.sim_per_wall"] = c.Env().Now().Seconds() / wall.Seconds()
	r := s.Result()
	readCounts(c, serveNodes).addTo(res.Counts, r)
	if n := r.Counters.Committed(); n > 0 {
		res.Counts["sim.events_per_commit"] = float64(r.Events) / float64(n)
	}
	finishRatios(res.Counts)
	addShape(res.Counts, c, serveNodes)
	return res
}

// eachClient runs fn on every client concurrently and returns the first
// error.
func eachClient(clients []*client, fn func(i int, c *client) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// client is one benchmark connection: a sender driven by the benchmark
// and a receiver goroutine matching replies to their due times.
type client struct {
	cl   *loadgen.Client
	gen  workload.Generator
	rng  *sim.RNG
	sent int64 // sender only

	// due holds each outstanding request's due send time (Unix ns),
	// indexed by transaction id; the receiver swaps it to -1 on the
	// reply, so a second reply for one id is caught. lat holds the
	// latency the receiver measured; it is written before recvd counts
	// the reply, and read only after recvd shows it.
	due []atomic.Int64
	lat []time.Duration

	recvd   atomic.Int64
	commits atomic.Int64
	bad     atomic.Int64 // rejected, unknown or duplicate replies
	goal    atomic.Int64
	reached chan struct{} // cap 1: recvd reached goal
	// credits is the closed-loop window: one token per request the
	// sender may still have outstanding. Its capacity is the largest
	// window used; in open loop the receiver's returns overflow and are
	// dropped.
	credits  chan struct{}
	recvDone chan struct{}
	recvErr  error
}

func dial(addr string, seed uint64, idx, capacity int) (*client, error) {
	gen, err := workload.ByName(serveWorkload, serveNodes)
	if err != nil {
		return nil, err
	}
	cl, err := loadgen.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &client{
		cl:       cl,
		gen:      gen,
		rng:      sim.NewRNG(seed ^ uint64(idx+1)*0x9E3779B97F4A7C15),
		due:      make([]atomic.Int64, capacity+1),
		lat:      make([]time.Duration, capacity+1),
		reached:  make(chan struct{}, 1),
		credits:  make(chan struct{}, max(burstWindow, ladderWindow)),
		recvDone: make(chan struct{}),
	}
	go c.receive()
	return c, nil
}

func (c *client) receive() {
	defer close(c.recvDone)
	for {
		rep, err := c.cl.Recv()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				c.recvErr = err
			}
			return
		}
		now := time.Now().UnixNano()
		id := rep.Resp.TxnID
		ok := rep.Status == txnwire.StatusCommitted && id > 0 && id < uint64(len(c.due))
		if ok {
			if d := c.due[id].Swap(-1); d > 0 {
				c.lat[id] = time.Duration(now - d)
				c.commits.Add(1)
			} else {
				ok = false
			}
		}
		if !ok {
			c.bad.Add(1)
		}
		select {
		case c.credits <- struct{}{}:
		default:
		}
		if c.recvd.Add(1) == c.goal.Load() {
			select {
			case c.reached <- struct{}{}:
			default:
			}
		}
	}
}

// await waits until every request sent so far has been answered.
func (c *client) await() bool {
	select {
	case <-c.reached:
	default:
	}
	c.goal.Store(c.sent)
	if c.recvd.Load() >= c.sent {
		return true
	}
	select {
	case <-c.reached:
		return true
	case <-c.recvDone:
	case <-time.After(replyTimeout):
	}
	return c.recvd.Load() >= c.sent
}

// send generates and queues one request due at due.
func (c *client) send(due time.Time) error {
	origin := netsim.NodeID(c.rng.Intn(serveNodes))
	txn := c.gen.Next(c.rng, origin)
	id := c.cl.PeekID()
	if id >= uint64(len(c.due)) {
		return fmt.Errorf("request %d beyond the planned %d", id, len(c.due)-1)
	}
	// Install the due time before Send: the reply races anything after.
	c.due[id].Store(due.UnixNano())
	if _, err := c.cl.Send(txn, origin); err != nil {
		return err
	}
	c.sent++
	return nil
}

// setWindow lets the sender have window requests outstanding. Call it
// only with every reply received.
func (c *client) setWindow(window int) {
	for len(c.credits) > 0 {
		<-c.credits
	}
	for i := 0; i < window; i++ {
		c.credits <- struct{}{}
	}
}

// acquire takes one window credit, flushing queued frames first if it
// has to wait, since only replies refill the window.
func (c *client) acquire() error {
	select {
	case <-c.credits:
		return nil
	default:
	}
	if err := c.cl.Flush(); err != nil {
		return err
	}
	select {
	case <-c.credits:
		return nil
	case <-c.recvDone:
		return errors.New("server closed the connection")
	}
}

// burst sends n requests closed-loop with window outstanding and waits
// for every reply.
func (c *client) burst(n, window int) error {
	c.setWindow(window)
	for i := 0; i < n; i++ {
		if err := c.acquire(); err != nil {
			return err
		}
		if err := c.send(time.Now()); err != nil {
			return err
		}
	}
	if err := c.cl.Flush(); err != nil {
		return err
	}
	if !c.await() {
		return errors.New("burst replies timed out")
	}
	return nil
}

// openLoop sends n requests at rate, each due at start + i/rate whether or
// not earlier ones were answered, as long as the window has room. It
// records how late each send started and how long each spent inside Send
// and Flush.
func (c *client) openLoop(rate float64, n int, start time.Time, late, sendDur *[]time.Duration) error {
	c.setWindow(ladderWindow)
	interval := time.Duration(float64(time.Second) / rate)
	unflushed := 0
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if err := c.acquire(); err != nil {
			return err
		}
		t0 := time.Now()
		*late = append(*late, t0.Sub(due))
		if err := c.send(due); err != nil {
			return err
		}
		unflushed++
		// Flush unless already behind schedule, then batch a few.
		if unflushed >= 16 || time.Until(due.Add(interval)) > 0 {
			if err := c.cl.Flush(); err != nil {
				return err
			}
			unflushed = 0
		}
		*sendDur = append(*sendDur, time.Since(t0))
	}
	return c.cl.Flush()
}

// rungStats is one ladder rate's outcome.
type rungStats struct {
	p50, p99      time.Duration
	backlog       bool
	failed        int64
	late, sendDur []time.Duration
}

func runRung(clients []*client, rate float64, d time.Duration) rungStats {
	per := rate / float64(len(clients))
	n := int(per * d.Seconds())
	lates := make([][]time.Duration, len(clients))
	durs := make([][]time.Duration, len(clients))
	for i := range clients {
		lates[i] = make([]time.Duration, 0, n)
		durs[i] = make([]time.Duration, 0, n)
	}
	firsts := make([]uint64, len(clients))
	badBefore := int64(0)
	for i, c := range clients {
		firsts[i] = c.cl.PeekID()
		badBefore += c.bad.Load()
	}
	start := time.Now().Add(time.Millisecond)
	var rs rungStats
	if err := eachClient(clients, func(i int, c *client) error {
		return c.openLoop(per, n, start, &lates[i], &durs[i])
	}); err != nil {
		panic(err)
	}
	// The backlog grew when the last send left more than the latency
	// limit behind its schedule.
	for i := range clients {
		if l := lates[i]; len(l) > 0 && l[len(l)-1] > p99Limit {
			rs.backlog = true
		}
	}
	for _, c := range clients {
		if !c.await() {
			rs.failed++
		}
		rs.failed += c.bad.Load()
	}
	rs.failed -= badBefore

	// Latency by due-time window: the k-th request of a connection was due
	// at start + k/per.
	windows := map[int][]time.Duration{}
	var all []time.Duration
	for i, c := range clients {
		for k := 0; k < n; k++ {
			lat := c.lat[firsts[i]+uint64(k)]
			w := int(float64(k) / per / latWindow.Seconds())
			windows[w] = append(windows[w], lat)
			all = append(all, lat)
		}
		rs.late = append(rs.late, lates[i]...)
		rs.sendDur = append(rs.sendDur, durs[i]...)
	}
	var p99s []float64
	for _, ws := range windows {
		p99s = append(p99s, float64(percentile(ws, 99)))
	}
	rs.p50 = percentile(all, 50)
	rs.p99 = time.Duration(median(p99s))
	return rs
}

// percentile returns the p-th percentile (nearest rank) of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s))*p/100+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
