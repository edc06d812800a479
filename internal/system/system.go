package system

import (
	"fmt"
	"strings"
	"unsafe"

	"bulkpim/internal/cache"
	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/memctrl"
	"bulkpim/internal/noc"
	"bulkpim/internal/pim"
	"bulkpim/internal/sim"
	"bulkpim/internal/stats"
	"bulkpim/internal/trace"
)

// System is one assembled machine.
type System struct {
	Cfg Config

	K       *sim.Kernel
	Backing *mem.Backing
	Scopes  *mem.ScopeMap
	Geom    pim.Geometry

	Cores []*cpu.Core
	L1s   []*cache.L1
	LLC   *cache.LLC
	MC    *memctrl.Controller
	// PIM is the first module; PIMs lists all attached modules.
	PIM  *pim.Module
	PIMs []*pim.Module

	HB         *core.Recorder
	Tracer     *trace.Tracer
	Violations stats.Counter

	// pool is the request pool every component shares; links are every
	// NoC link, which Release hands on.
	pool  *mem.RequestPool
	links []*noc.Link

	// failed marks a machine whose Run returned an error; released one
	// whose buffers went back (see Release).
	failed, released bool
}

// New builds and wires a system for cfg. It panics with cfg.Validate's
// error if cfg describes no buildable machine.
func New(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	k := sim.NewKernel()
	rng := sim.NewRand(cfg.Seed)
	// One request/line-buffer pool shared by every component, so requests
	// recycled at one tile are reused by the next (NoPooling reverts every
	// Get/Put to plain allocation for baseline measurements). A released
	// machine's pool comes with the arena its run grew.
	pool, ok := poolFree.Get(0)
	if !ok {
		pool = mem.NewRequestPool()
	}
	pool.Disabled = cfg.NoPooling
	backing := mem.NewBacking()
	backing.TrackWriters = cfg.Functional || cfg.TrackHB
	scopes := mem.NewScopeMap(cfg.PIMBase, cfg.ScopeSize, cfg.ScopeCount)
	geom := pim.DefaultGeometry()
	geom.Validate(cfg.ScopeSize)

	modules := make([]*pim.Module, cfg.PIMModules)
	for i := range modules {
		m := pim.NewModule(k, backing)
		m.BufferSize = cfg.PIMBufferSize
		m.CyclesPerMicroOp = cfg.PIMCyclesPerMicroOp
		m.FixedOpLatency = cfg.PIMFixedLatency
		m.ZeroLatency = cfg.PIMZeroLatency
		m.Functional = cfg.Functional
		modules[i] = m
	}
	module := modules[0]

	mc := memctrl.New(k, pool, module, backing)
	for _, m := range modules[1:] {
		mc.AddPIMModule(m)
	}
	mc.Functional = cfg.Functional
	mc.QueueSize = cfg.MCQueue
	mc.DRAMLatency = cfg.DRAMLatency
	mc.Banks = cfg.Banks
	mc.BankBusy = cfg.BankBusy
	mc.SendACK = nil // wired below

	// Which level carries which coherence hardware (Table I): every
	// PIM-flushing model puts a scope unit at the LLC, less what the §VII
	// ablations strip; scope-relaxed adds a whole one to each L1 (§V-E).
	// One scan cost prices both levels.
	scan := cache.ScanCost{PerSet: cfg.ScanPerSet, PerLine: cfg.ScanPerLine}
	llc := cache.NewLLC(k, pool, cfg.Model, cfg.LLCSets, cfg.LLCWays, cfg.LLCHitLatency, scopes)
	llc.Scan = scan
	if cfg.Model.FlushesLLCOnPIMOp() {
		sbSets := cfg.LLCScopeBufSets
		if cfg.NoScopeBuffer {
			sbSets = 0
		}
		llc.EnableScope(sbSets, cfg.LLCScopeBufWays, !cfg.NoSBV)
	}

	s := &System{
		Cfg: cfg, K: k, Backing: backing, Scopes: scopes, Geom: geom,
		LLC: llc, MC: mc, PIM: module, PIMs: modules, pool: pool,
		links: make([]*noc.Link, 0, 4*cfg.Cores+2),
	}
	link := func(name string, latency, jitter sim.Tick) *noc.Link {
		l := noc.NewLink(k, name, latency, jitter, 1, rng.Fork())
		s.links = append(s.links, l)
		return l
	}
	if cfg.TraceCategories != "" {
		mask, _ := trace.ParseCategories(cfg.TraceCategories) // checked by Validate
		s.Tracer = trace.New(k.Now, cfg.TraceWriter, mask, 4096)
		llc.Tracer = s.Tracer
		mc.Tracer = s.Tracer
		for _, m := range modules {
			m.Tracer = s.Tracer
		}
	}
	if cfg.TrackHB {
		s.HB = core.NewRecorder(cfg.Model)
	}

	l1s := make([]*cache.L1, cfg.Cores)
	down := make([]*noc.Link, cfg.Cores)
	ackLinks := make([]*noc.Link, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		l1s[i] = cache.NewL1(k, pool, i, cfg.L1Sets, cfg.L1Ways, cfg.L1HitLatency)
		l1s[i].Scan = scan
		if cfg.Model.ScopeStructuresInAllCaches() {
			l1s[i].EnableScope(cfg.L1ScopeBufSets, cfg.L1ScopeBufWays, true)
		}
		names := &coreLinkNames[i]
		l1s[i].Connect(llc, link(names.up, cfg.CoreLLCLatency, cfg.CoreLLCJitter))
		down[i] = link(names.down, cfg.CoreLLCLatency, cfg.CoreLLCJitter)
		ackLinks[i] = link(names.ack, cfg.CoreLLCLatency, 0)
	}
	mcLink := link("llc-mc", cfg.LLCMCLatency, 0)
	mcResp := link("mc-llc", cfg.LLCMCLatency, 0)
	llc.Connect(l1s, down, mc, mcLink, mcResp)
	s.L1s = l1s

	cores := make([]*cpu.Core, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		c := cpu.NewCore(k, pool, i, cfg.Model)
		c.Functional = cfg.Functional
		c.L1 = l1s[i]
		c.LLC = llc
		c.Reply = down[i]
		c.Scopes = scopes
		c.HB = s.HB
		c.L1HitLatency = cfg.L1HitLatency
		c.MLP = cfg.MLP
		c.StoreBufferCap = cfg.StoreBufCap
		c.PIMCredits = cfg.PIMCredits
		c.Tracer = s.Tracer
		c.Direct = link(coreLinkNames[i].direct, cfg.CoreLLCLatency, cfg.CoreLLCJitter)
		cores[i] = c
	}
	s.Cores = cores

	// ACK delivery callbacks are hoisted per core so each ACK sends without
	// allocating a closure.
	ackFns := make([]func(any), cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		c := cores[i]
		ackFns[i] = func(x any) { c.OnPIMAck(x.(*mem.Request)) }
	}
	mc.SendACK = func(req *mem.Request) {
		if req.Core < 0 || req.Core >= len(cores) {
			return
		}
		ackLinks[req.Core].SendOrderedCtx(ackFns[req.Core], req)
	}
	return s
}

// coreLinkNames names each core's links, built once rather than per
// machine.
var coreLinkNames = func() (names [maxCores]struct{ up, down, ack, direct string }) {
	for i := range names {
		names[i].up = fmt.Sprintf("up%d", i)
		names[i].down = fmt.Sprintf("down%d", i)
		names[i].ack = fmt.Sprintf("ack%d", i)
		names[i].direct = fmt.Sprintf("direct%d", i)
	}
	return names
}()

// Result summarizes one run.
type Result struct {
	Cycles  sim.Tick
	Seconds float64
	// DrainCycles is when the event queue fully drained (>= Cycles).
	DrainCycles sim.Tick
	Violations  uint64
	Stats       map[string]float64
}

// poolFree holds released machines' request pools, each with the
// requests and line buffers its run grew.
var poolFree = sim.NewFreeList[*mem.RequestPool]()

// Release hands every per-machine structure to the free lists the next
// New draws from: the cores, the L1s and the LLC with their line arrays,
// payload blocks and scope units, the memory controller, the PIM modules,
// the links, the request pool and the event kernel. Each is handed on
// with the storage its run grew and none of its state. Release leaves s
// unusable: s stops naming them, and a second Release, a Run, and a
// cache lookup or a run of the kernel on s panic. A machine whose Run
// returned an error, or whose kernel still holds events, gives nothing
// back. Calling Release is optional; a machine never released goes to
// the garbage collector whole.
//
// Release checks what it hands on: every pooled request must have come
// back to the pool, and every scope bit-vector must match its lines.
func (s *System) Release() {
	if s.released {
		panic("system: Release of a released System")
	}
	s.released = true
	if s.failed || s.K.Pending() != 0 {
		return
	}
	p := s.pool
	if p.Gets != p.Puts {
		panic(fmt.Sprintf("system: %d of %d pooled requests never went back to the pool", p.Gets-p.Puts, p.Gets))
	}
	for _, l1 := range s.L1s {
		l1.Release()
	}
	s.LLC.Release()
	for _, c := range s.Cores {
		c.Release()
	}
	s.MC.Release()
	for _, m := range s.PIMs {
		m.Release()
	}
	for _, l := range s.links {
		l.Release()
	}
	p.Gets, p.Puts = 0, 0
	poolFree.Put(0, p.FreeRequests()*int(unsafe.Sizeof(mem.Request{}))+p.FreeLines()*mem.LineSize, p)
	s.K.Release()
	s.K, s.Cores, s.L1s, s.LLC, s.MC, s.PIM, s.PIMs, s.links = nil, nil, nil, nil, nil, nil, nil, nil
}

// Run executes one thread per core (len(threads) <= cores) and returns
// when all threads retire and the machine quiesces. Run time is the
// latest thread retirement, matching the benchmark-client view.
func (s *System) Run(threads []cpu.Thread) (Result, error) {
	if s.released {
		panic("system: Run of a released System")
	}
	res, err := s.run(threads)
	if err != nil {
		s.failed = true
	}
	return res, err
}

// RunOnce builds a machine for cfg, runs the threads that threads makes
// for it, and releases the machine after a clean run. It is the one
// place a run decides whether its buffers go back.
func RunOnce(cfg Config, threads func(*System) []cpu.Thread) (Result, error) {
	s := New(cfg)
	res, err := s.Run(threads(s))
	if err == nil {
		s.Release()
	}
	return res, err
}

func (s *System) run(threads []cpu.Thread) (Result, error) {
	if len(threads) > len(s.Cores) {
		return Result{}, fmt.Errorf("system: %d threads > %d cores", len(threads), len(s.Cores))
	}
	var finished sim.Tick
	remaining := len(threads)
	for i, t := range threads {
		c := s.Cores[i]
		c.OnDone = func(id int) {
			remaining--
			if s.Cores[id].FinishedAt > finished {
				finished = s.Cores[id].FinishedAt
			}
		}
		c.Start(t)
	}
	drained, err := s.K.Run()
	if err != nil {
		return Result{}, err
	}
	if remaining != 0 {
		var diag strings.Builder
		for i := 0; i < len(threads); i++ {
			if !s.Cores[i].Done() {
				fmt.Fprintf(&diag, "\n  %s", s.Cores[i].DebugState())
			}
		}
		buffered, inflight := 0, 0
		for _, m := range s.PIMs {
			buffered += m.BufferLen()
			inflight += m.InFlight()
		}
		fmt.Fprintf(&diag, "\n  llc egress=%d; mc queue=%d; pim buffered=%d inflight=%d",
			s.LLC.EgressBacklog(), s.MC.QueueLen(), buffered, inflight)
		return Result{}, fmt.Errorf("system: deadlock, %d threads never finished (events drained at %d)%s", remaining, drained, diag.String())
	}
	return Result{
		Cycles:      finished,
		Seconds:     s.Cfg.Seconds(finished),
		DrainCycles: drained,
		Violations:  s.Violations.Value(),
		Stats:       s.collectStats(),
	}, nil
}

// aggMean folds per-module (sum, count) pairs into one mean.
func aggMean(ms []*pim.Module, f func(*pim.Module) (float64, uint64)) float64 {
	var sum float64
	var count uint64
	for _, m := range ms {
		s, c := f(m)
		sum += s
		count += c
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

func aggCount(ms []*pim.Module, f func(*pim.Module) uint64) float64 {
	var n uint64
	for _, m := range ms {
		n += f(m)
	}
	return float64(n)
}

func aggMax(ms []*pim.Module, f func(*pim.Module) float64) float64 {
	var mx float64
	for _, m := range ms {
		if v := f(m); v > mx {
			mx = v
		}
	}
	return mx
}

func (s *System) collectStats() map[string]float64 {
	m := map[string]float64{
		"llc.scan_latency_mean":  s.LLC.ScanLatency.Value(),
		"llc.scan_count":         float64(s.LLC.Scans.Value()),
		"llc.sb_hit_rate":        s.LLC.SBHitRate.Value(),
		"llc.sbv_skip_ratio":     s.LLC.SkipRatio.Value(),
		"llc.lines_flushed":      float64(s.LLC.LinesFlushed.Value()),
		"llc.hits":               float64(s.LLC.Hits.Value()),
		"llc.misses":             float64(s.LLC.Misses.Value()),
		"llc.writebacks":         float64(s.LLC.Writebacks.Value()),
		"pim.buffer_len_mean":    aggMean(s.PIMs, func(m *pim.Module) (float64, uint64) { return m.BufLenOnArrival.Sum(), m.BufLenOnArrival.Count() }),
		"pim.unique_scopes_mean": aggMean(s.PIMs, func(m *pim.Module) (float64, uint64) { return m.UniqueScopesOnArr.Sum(), m.UniqueScopesOnArr.Count() }),
		"pim.ops_executed":       aggCount(s.PIMs, func(m *pim.Module) uint64 { return m.OpsExecuted.Value() }),
		"pim.exec_cycles_mean":   aggMean(s.PIMs, func(m *pim.Module) (float64, uint64) { return m.ExecCycles.Sum(), m.ExecCycles.Count() }),
		"pim.peak_buffer":        aggMax(s.PIMs, func(m *pim.Module) float64 { return float64(m.PeakBuffer) }),
		"mc.loads":               float64(s.MC.LoadsServed.Value()),
		"mc.writes":              float64(s.MC.WritesServed.Value()),
		"mc.pim_forwarded":       float64(s.MC.PIMForwarded.Value()),
		"mc.queue_len_mean":      s.MC.QueueLenOnArrival.Value(),
	}
	var instrs, loads, pims, stalls float64
	for _, c := range s.Cores {
		instrs += float64(c.Instrs.Value())
		loads += float64(c.LoadsIssued.Value())
		pims += float64(c.PIMIssued.Value())
		stalls += float64(c.Stalls.Value())
	}
	m["cpu.instrs"] = instrs
	m["cpu.loads"] = loads
	m["cpu.pim_issued"] = pims
	m["cpu.stalls"] = stalls
	m["violations"] = float64(s.Violations.Value())
	return m
}
