package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lockin/internal/sim"
	"lockin/internal/topo"
)

func newMeter() (*sim.Kernel, *Meter) {
	k := sim.NewKernel(1)
	return k, NewMeter(k, DefaultConfig(), topo.Xeon())
}

func powerOver(k *sim.Kernel, m *Meter, d sim.Cycles) Breakdown {
	e0 := m.Energy()
	start := k.Now()
	k.Schedule(d, func() {})
	k.Run(start + d)
	return m.Energy().Sub(e0).Power(d, m.Config().BaseFreqGHz)
}

func TestIdlePowerMatchesPaper(t *testing.T) {
	k, m := newMeter()
	p := powerOver(k, m, 1_000_000)
	// Paper: 55.5 W idle (30.5 W packages + 25 W DRAM background).
	if math.Abs(p.Total-55.5) > 1.0 {
		t.Fatalf("idle power %.1f W, want ≈55.5", p.Total)
	}
	if math.Abs(p.DRAM-25.0) > 0.5 {
		t.Fatalf("idle DRAM %.1f W, want 25", p.DRAM)
	}
}

func TestFirstCoreActivationCost(t *testing.T) {
	k, m := newMeter()
	idle := powerOver(k, m, 1_000_000)
	m.SetActivity(0, MemStress)
	one := powerOver(k, m, 1_000_000)
	delta := one.Package - idle.Package
	// Paper: 13.6 W package for the first active core at VF-max.
	if delta < 10 || delta > 16 {
		t.Fatalf("first-core package delta %.1f W, want ≈13.6", delta)
	}
	m.SetActivity(1, MemStress)
	two := powerOver(k, m, 1_000_000)
	delta2 := two.Package - one.Package
	// Paper: ≈5.6 W for the second core (no uncore activation).
	if delta2 < 3.5 || delta2 > 7 {
		t.Fatalf("second-core package delta %.1f W, want ≈5.6", delta2)
	}
	if delta2 >= delta {
		t.Fatal("second core should cost less than the first (uncore)")
	}
}

func TestMaxPowerEnvelope(t *testing.T) {
	k, m := newMeter()
	for ctx := 0; ctx < topo.Xeon().NumContexts(); ctx++ {
		m.SetActivity(ctx, MemStress)
	}
	p := powerOver(k, m, 1_000_000)
	// Paper: ≈206 W peak. Accept the 180–230 band.
	if p.Total < 180 || p.Total > 230 {
		t.Fatalf("max power %.1f W, want ≈206", p.Total)
	}
	if p.DRAM < 55 || p.DRAM > 85 {
		t.Fatalf("max DRAM %.1f W, want ≈74", p.DRAM)
	}
	if p.Package < p.Cores {
		t.Fatal("package power must include core power")
	}
}

func TestPauseCostsMoreThanLocalSpin(t *testing.T) {
	k, m := newMeter()
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, SpinLocal)
	}
	local := powerOver(k, m, 1_000_000)
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, SpinPause)
	}
	pause := powerOver(k, m, 1_000_000)
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, SpinMbar)
	}
	mbar := powerOver(k, m, 1_000_000)
	if pause.Total <= local.Total {
		t.Fatalf("pause (%.1f) should cost more than local (%.1f)", pause.Total, local.Total)
	}
	if mbar.Total >= pause.Total {
		t.Fatalf("mbar (%.1f) should cost less than pause (%.1f)", mbar.Total, pause.Total)
	}
	if mbar.Total >= local.Total {
		t.Fatalf("mbar (%.1f) should undercut plain local spinning (%.1f)", mbar.Total, local.Total)
	}
	// Paper: pause increases power by up to ≈4 %.
	ratio := pause.Total / local.Total
	if ratio > 1.06 {
		t.Fatalf("pause/local ratio %.3f too large", ratio)
	}
}

func TestMwaitReducesPower(t *testing.T) {
	k, m := newMeter()
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, SpinMbar)
	}
	spin := powerOver(k, m, 1_000_000)
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, Mwait)
	}
	mw := powerOver(k, m, 1_000_000)
	// Paper: mwait reduces busy-wait power by up to 1.5×. Compare the
	// dynamic (above-idle) component.
	idle := 55.5
	ratio := (spin.Total - idle) / (mw.Total - idle)
	if ratio < 1.3 || ratio > 3.5 {
		t.Fatalf("spin/mwait dynamic-power ratio %.2f, want ≈1.5-3", ratio)
	}
}

func TestDVFSSpinPowerRatio(t *testing.T) {
	k, m := newMeter()
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, SpinMbar)
	}
	max := powerOver(k, m, 1_000_000)
	for ctx := 0; ctx < 40; ctx++ {
		m.SetVF(ctx, VFMin)
	}
	min := powerOver(k, m, 1_000_000)
	// Paper: spinning at VF-min consumes up to 1.7× less power. Compare
	// dynamic component above idle.
	ratio := (max.Total - 55.5) / (min.Total - 55.5)
	if ratio < 1.4 || ratio > 2.6 {
		t.Fatalf("VF-max/VF-min dynamic ratio %.2f, want ≈1.7-2", ratio)
	}
}

func TestHyperThreadVFSharing(t *testing.T) {
	_, m := newMeter()
	// Context 0 and its sibling share physical core 0.
	sib := topo.Xeon().NumCores() // first HT sibling of core 0
	m.SetVF(0, VFMin)
	if m.EffectiveSlowdown(0) != 1.0 {
		t.Fatal("one sibling at VF-min must not slow the core while the other is at VF-max")
	}
	m.SetVF(sib, VFMin)
	want := DefaultConfig().BaseFreqGHz / DefaultConfig().MinFreqGHz
	if math.Abs(m.EffectiveSlowdown(0)-want) > 1e-9 {
		t.Fatalf("slowdown %.2f, want %.2f once both siblings request VF-min", m.EffectiveSlowdown(0), want)
	}
}

func TestSecondHyperThreadCheaper(t *testing.T) {
	k, m := newMeter()
	m.SetActivity(0, Compute)
	one := powerOver(k, m, 1_000_000)
	sib := topo.Xeon().NumCores()
	m.SetActivity(sib, Compute)
	two := powerOver(k, m, 1_000_000)
	firstHT := one.Total - 55.5
	secondHT := two.Total - one.Total
	if secondHT >= firstHT/2 {
		t.Fatalf("second HT delta %.2f W vs first %.2f W: sibling should be much cheaper", secondHT, firstHT)
	}
}

func TestEnergyMonotonicProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		k := sim.NewKernel(9)
		m := NewMeter(k, DefaultConfig(), topo.Xeon())
		prev := 0.0
		for _, s := range steps {
			ctx := int(s) % 40
			act := Activity(int(s) % int(numActivities))
			k.Schedule(100, func() { m.SetActivity(ctx, act) })
			k.Run(k.Now() + 100)
			e := m.Energy().Total()
			if e < prev-1e-12 {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIdleDeepDrawsLessThanShallow(t *testing.T) {
	k, m := newMeter()
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, IdleShallow)
	}
	shallow := powerOver(k, m, 1_000_000)
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, IdleDeep)
	}
	deep := powerOver(k, m, 1_000_000)
	if deep.Total >= shallow.Total {
		t.Fatalf("deep idle %.1f W should undercut shallow %.1f W", deep.Total, shallow.Total)
	}
}

func TestActivityStrings(t *testing.T) {
	for a := Activity(0); a < numActivities; a++ {
		if a.String() == "" {
			t.Fatalf("activity %d has empty name", a)
		}
	}
	if Activity(99).String() != "Activity(99)" {
		t.Fatal("out-of-range activity name")
	}
	if !SpinLocal.IsSpin() || Compute.IsSpin() {
		t.Fatal("IsSpin misclassifies")
	}
	if !IdleDeep.IsIdle() || Mwait.IsIdle() {
		t.Fatal("IsIdle misclassifies")
	}
	if VFMin.String() == VFMax.String() {
		t.Fatal("VF strings collide")
	}
}

func TestBreakdownAndEnergyHelpers(t *testing.T) {
	e := Energy{Package: 10, Cores: 6, DRAM: 5}
	if e.Total() != 15 {
		t.Fatalf("Total = %f", e.Total())
	}
	d := e.Sub(Energy{Package: 4, Cores: 2, DRAM: 1})
	if d.Package != 6 || d.Cores != 4 || d.DRAM != 4 {
		t.Fatalf("Sub = %+v", d)
	}
	if (Energy{}).Power(0, 2.8) != (Breakdown{}) {
		t.Fatal("zero-duration power should be zero")
	}
	b := Energy{Package: 2.8, DRAM: 0}.Power(1_000_000_000, 2.8) // 2.8 J over 1/2.8 s
	if math.Abs(b.Package-7.84) > 0.01 {
		t.Fatalf("power conversion wrong: %+v", b)
	}
	if b.String() == "" {
		t.Fatal("empty breakdown string")
	}
}

// refMeter is the meter as it was before it became incremental: every
// rebuild re-walks every core and scans each socket's cores for the
// uncore VF. Its recompute is kept verbatim as the reference the
// incremental Meter must match bit for bit.
type refMeter struct {
	k    *sim.Kernel
	cfg  Config
	topo topo.Topology
	ctxs []ctxState

	lastAt                    sim.Cycles
	accPkg, accCores, accDRAM float64
	curPkg, curCores, curDRAM float64
	dirty                     bool

	socketActive []bool
	busy         []int16
	skipDeep     bool
}

func newRefMeter(k *sim.Kernel, cfg Config, t topo.Topology) *refMeter {
	m := &refMeter{
		k: k, cfg: cfg, topo: t,
		ctxs:         make([]ctxState, t.NumContexts()),
		socketActive: make([]bool, t.Sockets),
		busy:         make([]int16, t.NumCores()),
		skipDeep:     cfg.ActivityW[IdleDeep] == 0 && cfg.DRAMActivityW[IdleDeep] == 0,
	}
	m.recompute()
	return m
}

func (m *refMeter) SetActivity(ctx int, a Activity) {
	old := m.ctxs[ctx].act
	if old == a {
		return
	}
	m.integrate()
	m.ctxs[ctx].act = a
	if (old == IdleDeep) != (a == IdleDeep) {
		if core := m.topo.CoreOf(ctx); a == IdleDeep {
			m.busy[core]--
		} else {
			m.busy[core]++
		}
	}
	m.dirty = true
}

func (m *refMeter) SetVF(ctx int, v VF) {
	if m.ctxs[ctx].vf == v {
		return
	}
	m.integrate()
	m.ctxs[ctx].vf = v
	m.dirty = true
}

func (m *refMeter) coreVF(core int) VF {
	for ht := 0; ht < m.topo.ThreadsPerCore; ht++ {
		if m.ctxs[core+ht*m.topo.NumCores()].vf == VFMax {
			return VFMax
		}
	}
	return VFMin
}

func (m *refMeter) EffectiveSlowdown(ctx int) float64 {
	return m.cfg.Slowdown(m.coreVF(m.topo.CoreOf(ctx)))
}

func (m *refMeter) integrate() {
	now := m.k.Now()
	if now <= m.lastAt {
		m.lastAt = now
		return
	}
	if m.dirty {
		m.recompute()
		m.dirty = false
	}
	dt := float64(now - m.lastAt)
	m.accPkg += m.curPkg * dt
	m.accCores += m.curCores * dt
	m.accDRAM += m.curDRAM * dt
	m.lastAt = now
}

func (m *refMeter) recompute() {
	nc := m.topo.NumCores()
	tpc := m.topo.ThreadsPerCore
	cores := 0.0
	dram := m.cfg.DRAMBackgroundW
	socketActive := m.socketActive
	for i := range socketActive {
		socketActive[i] = false
	}
	// Walk cores in index order (socket-major, matching the numbering) so
	// the floating-point summation order never changes.
	core := 0
	for s := 0; s < m.topo.Sockets; s++ {
		for end := core + m.topo.CoresPerSocket; core < end; core++ {
			if m.skipDeep && m.busy[core] == 0 {
				// Entirely idle-deep core: every term below is exactly
				// 0.0, so skipping it leaves the sums bit-identical.
				continue
			}
			scale := 1.0
			if m.coreVF(core) == VFMin {
				scale = m.cfg.VFMinScale
			}
			// The busiest hyper-thread pays full activity power, siblings a
			// fraction: the core's execution resources are shared.
			bestW, extraW := 0.0, 0.0
			for ht := 0; ht < tpc; ht++ {
				st := m.ctxs[core+ht*nc]
				w := m.cfg.ActivityW[st.act]
				if w > bestW {
					extraW += bestW
					bestW = w
				} else {
					extraW += w
				}
				dram += m.cfg.DRAMActivityW[st.act] * scale
				if !st.act.IsIdle() {
					socketActive[s] = true
				}
			}
			cores += (bestW + extraW*m.cfg.HTFraction) * scale
		}
	}
	pkg := cores
	for s := 0; s < m.topo.Sockets; s++ {
		pkg += m.cfg.PkgStaticW
		if socketActive[s] {
			scale := 1.0
			// Uncore scales with the highest VF among the socket's cores.
			allMin := true
			for c := s * m.topo.CoresPerSocket; c < (s+1)*m.topo.CoresPerSocket; c++ {
				if m.coreVF(c) == VFMax {
					allMin = false
					break
				}
			}
			if allMin {
				scale = m.cfg.VFMinScale
			}
			pkg += m.cfg.UncoreActiveW * scale
		}
	}
	m.curPkg, m.curCores, m.curDRAM = pkg, cores, dram
}

func (m *refMeter) Energy() Energy {
	m.integrate()
	hz := m.cfg.BaseFreqGHz * 1e9
	return Energy{
		Package: m.accPkg / hz,
		Cores:   m.accCores / hz,
		DRAM:    m.accDRAM / hz,
	}
}

func (m *refMeter) InstantPower() Breakdown {
	if m.dirty {
		m.recompute()
		m.dirty = false
	}
	return Breakdown{
		Total:   m.curPkg + m.curDRAM,
		Package: m.curPkg,
		Cores:   m.curCores,
		DRAM:    m.curDRAM,
	}
}

// deepConfig draws non-zero power in IdleDeep, which turns off the
// reference walk's skip of all-idle-deep cores.
func deepConfig() Config {
	c := DefaultConfig()
	c.ActivityW[IdleDeep] = 0.05
	c.DRAMActivityW[IdleDeep] = 0.01
	return c
}

// meterPair drives a Meter and a refMeter on one kernel through the same
// transitions and fails on the first bit of difference.
type meterPair struct {
	t    testing.TB
	k    *sim.Kernel
	m    *Meter
	ref  *refMeter
	step int
}

func newMeterPair(t testing.TB, cfg Config, tp topo.Topology) *meterPair {
	k := sim.NewKernel(1)
	return &meterPair{t: t, k: k, m: NewMeter(k, cfg, tp), ref: newRefMeter(k, cfg, tp)}
}

func (p *meterPair) setActivity(ctx int, a Activity) {
	p.m.SetActivity(ctx, a)
	p.ref.SetActivity(ctx, a)
	p.check(false)
}

func (p *meterPair) setVF(ctx int, v VF) {
	p.m.SetVF(ctx, v)
	p.ref.SetVF(ctx, v)
	p.check(false)
}

func (p *meterPair) advance(d sim.Cycles) {
	until := p.k.Now() + d
	p.k.Schedule(d, func() {})
	p.k.Run(until)
	p.check(false)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// check compares every context's slowdown and the energy counters, and
// with instant also the instantaneous power (which forces a rebuild, so
// callers alternate to leave bursts of dirty cores for integrate).
func (p *meterPair) check(instant bool) {
	p.t.Helper()
	p.step++
	for ctx := range p.m.ctxs {
		if a, b := p.m.EffectiveSlowdown(ctx), p.ref.EffectiveSlowdown(ctx); !sameBits(a, b) {
			p.t.Fatalf("step %d: ctx %d slowdown %v, reference %v", p.step, ctx, a, b)
		}
	}
	if a, b := p.m.Energy(), p.ref.Energy(); !sameBits(a.Package, b.Package) ||
		!sameBits(a.Cores, b.Cores) || !sameBits(a.DRAM, b.DRAM) {
		p.t.Fatalf("step %d: energy %+v, reference %+v", p.step, a, b)
	}
	if !instant {
		return
	}
	if a, b := p.m.InstantPower(), p.ref.InstantPower(); !sameBits(a.Total, b.Total) ||
		!sameBits(a.Package, b.Package) || !sameBits(a.Cores, b.Cores) || !sameBits(a.DRAM, b.DRAM) {
		p.t.Fatalf("step %d: instant power %+v, reference %+v", p.step, a, b)
	}
}

var referenceCases = []struct {
	name string
	cfg  Config
	topo topo.Topology
}{
	{"xeon", DefaultConfig(), topo.Xeon()},
	{"corei7", DefaultConfig(), topo.CoreI7()},
	{"xeon-deep", deepConfig(), topo.Xeon()},
	{"3x3x3-deep", deepConfig(), topo.Topology{Sockets: 3, CoresPerSocket: 3, ThreadsPerCore: 3}},
}

// TestMeterMatchesReference drives random bursts of activity and VF
// changes, separated by random time advances, through the incremental
// meter and the full re-walk reference, and requires bit-identical
// energy, power and slowdown after every step.
func TestMeterMatchesReference(t *testing.T) {
	for _, tc := range referenceCases {
		t.Run(tc.name, func(t *testing.T) {
			p := newMeterPair(t, tc.cfg, tc.topo)
			rng := rand.New(rand.NewSource(7))
			n := tc.topo.NumContexts()
			for step := 0; step < 4000; step++ {
				// A burst of transitions at one instant, as a context
				// switch or a wake-up chain makes them.
				for i := rng.Intn(6); i >= 0; i-- {
					ctx := rng.Intn(n)
					if rng.Intn(4) == 0 {
						p.setVF(ctx, VF(rng.Intn(2)))
					} else {
						p.setActivity(ctx, Activity(rng.Intn(int(numActivities))))
					}
				}
				p.check(step%2 == 0)
				p.advance(sim.Cycles(1 + rng.Intn(5000)))
			}
		})
	}
}

// FuzzMeterMatchesReference reads the input as (op, ctx, arg) byte
// triples — set activity, set VF, advance time, read instant power — and
// requires the incremental meter to match the reference bit for bit.
func FuzzMeterMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 2, 2, 10, 0, 1, 0, 1, 1, 20, 1, 2, 5, 5, 3, 0, 0})
	f.Add(uint8(2), []byte{0, 3, 4, 0, 4, 0, 1, 3, 1, 3, 0, 0, 2, 1, 1})
	f.Add(uint8(3), []byte{1, 0, 1, 1, 1, 1, 0, 0, 8, 2, 9, 9, 3, 0, 0})
	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		tc := referenceCases[int(which)%len(referenceCases)]
		p := newMeterPair(t, tc.cfg, tc.topo)
		n := tc.topo.NumContexts()
		for i := 0; i+2 < len(ops); i += 3 {
			ctx, arg := int(ops[i+1])%n, int(ops[i+2])
			switch ops[i] % 4 {
			case 0:
				p.setActivity(ctx, Activity(arg%int(numActivities)))
			case 1:
				p.setVF(ctx, VF(arg%2))
			case 2:
				p.advance(sim.Cycles(1 + int(ops[i+1])*arg))
			case 3:
				p.check(true)
			}
		}
		p.check(true)
	})
}

// transition is a self-rescheduling event: every 10 cycles it sets a
// random context to a random activity, or one in five times to a random
// VF point. x is the xorshift state the next pick derives from.
func transition(obj any, x, _ uint64) {
	m := obj.(*Meter)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ctx := int(x % uint64(len(m.ctxs)))
	if x>>8%5 == 0 {
		m.SetVF(ctx, VF(x>>16&1))
	} else {
		m.SetActivity(ctx, [...]Activity{Compute, SpinMbar, IdleShallow, IdleDeep}[x>>16%4])
	}
	m.k.ScheduleCall(10, transition, m, x, 0)
}

// TestMeterTransitionZeroAlloc pins the steady state of the hot path:
// transitions and the rebuilds they trigger allocate nothing, and the
// dirty list never outgrows its initial one-slot-per-core capacity.
func TestMeterTransitionZeroAlloc(t *testing.T) {
	k, m := newMeter()
	k.ScheduleCall(10, transition, m, 1, 0)
	step := func() {
		k.Run(k.Now() + 100)
		m.InstantPower()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	capacity := cap(m.dirty)
	if n := testing.AllocsPerRun(500, step); n != 0 {
		t.Errorf("meter transitions allocate %.1f per run, want 0", n)
	}
	if cap(m.dirty) != capacity || capacity != topo.Xeon().NumCores() {
		t.Errorf("dirty list capacity %d, started at %d, want %d", cap(m.dirty), capacity, topo.Xeon().NumCores())
	}
}

// BenchmarkMeterTransition measures one simulated state change on the
// Xeon: an event that sets a context's activity or VF, integrating the
// interval since the previous change and rebuilding the powers it made
// stale.
func BenchmarkMeterTransition(b *testing.B) {
	k, m := newMeter()
	k.ScheduleCall(10, transition, m, 1, 0)
	k.Run(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(k.Now() + sim.Cycles(b.N)*10)
}
