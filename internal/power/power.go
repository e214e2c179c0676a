// Package power models processor and DRAM power and exposes RAPL-style
// energy counters for the simulated machine.
//
// The model is an activity-based integrator: every hardware context is, at
// any virtual instant, in exactly one Activity (computing, spinning with a
// given pausing technique, mwait-ing, or idle at some C-state depth) and
// at one voltage-frequency point. The meter integrates Watts over virtual
// cycles on every state change and attributes energy to the package,
// cores and DRAM domains, mirroring the Intel RAPL counters the paper
// measures with.
//
// All wattage constants are calibrated against the paper's own Xeon
// measurements (§3, §4): 55.5 W idle, ≈206 W peak, 13.6 W first-core
// activation at VF-max (8 W uncore + core + DRAM), ≈5.6 W per subsequent
// core, pause +4 % over plain local spinning, mbar −7 % under pause,
// mwait ≈1.5× below spinning, VF-min spinning ≈1.7× below VF-max.
package power

import (
	"fmt"

	"lockin/internal/sim"
	"lockin/internal/topo"
)

// Activity classifies what a hardware context is doing, which determines
// its dynamic power draw.
type Activity int

const (
	// IdleDeep is a deep C-state (C6): ≈0 W, slow exit.
	IdleDeep Activity = iota
	// IdleShallow is a shallow C-state (C1): cheap to exit.
	IdleShallow
	// Compute is ordinary instruction execution (CPI ≈ 1).
	Compute
	// MemStress is memory-bound execution; it additionally drives DRAM power.
	MemStress
	// SpinLocal is a load-based spin loop without pausing (CPI ≈ 0.33).
	SpinLocal
	// SpinPause is a spin loop with the x86 pause instruction (CPI 4.6).
	SpinPause
	// SpinMbar is a spin loop paced by a memory barrier (the paper's
	// recommended pausing technique).
	SpinMbar
	// SpinGlobal is atomic polling (test-and-set style global spinning).
	SpinGlobal
	// Mwait is hardware sleeping via monitor/mwait: the context is held
	// but the core is in an optimized state.
	Mwait

	numActivities
)

var activityNames = [...]string{
	"idle-deep", "idle-shallow", "compute", "mem-stress",
	"spin-local", "spin-pause", "spin-mbar", "spin-global", "mwait",
}

func (a Activity) String() string {
	if a < 0 || int(a) >= len(activityNames) {
		return fmt.Sprintf("Activity(%d)", int(a))
	}
	return activityNames[a]
}

// IsIdle reports whether the activity leaves the context available to the
// power-management hardware.
func (a Activity) IsIdle() bool { return a == IdleDeep || a == IdleShallow }

// IsSpin reports whether the activity is some form of busy waiting.
func (a Activity) IsSpin() bool {
	return a == SpinLocal || a == SpinPause || a == SpinMbar || a == SpinGlobal
}

// VF is a voltage-frequency operating point.
type VF int

const (
	// VFMax is the nominal maximum frequency (2.8 GHz on the Xeon).
	VFMax VF = iota
	// VFMin is the lowest DVFS point (1.2 GHz on the Xeon).
	VFMin
)

func (v VF) String() string {
	if v == VFMin {
		return "VF-min"
	}
	return "VF-max"
}

// Config holds the wattage constants of the model. Watts are average
// powers; energies are integrated over virtual cycles and converted to
// Joules with BaseFreqGHz.
type Config struct {
	BaseFreqGHz float64 // reference clock for cycle→second conversion (VF-max)
	MinFreqGHz  float64 // clock at VF-min (instruction slowdown)

	PkgStaticW      float64 // per-socket static package power (caches, fabric)
	DRAMBackgroundW float64 // DRAM background power, whole machine
	UncoreActiveW   float64 // per-socket extra power when ≥1 core is active (VF-max)

	// ActivityW is per-context dynamic power at VF-max for the first
	// hardware thread of a core; the second thread adds HTFraction of its
	// own activity's power.
	ActivityW  [numActivities]float64
	HTFraction float64

	// DRAMActivityW is per-context DRAM power contribution at VF-max.
	DRAMActivityW [numActivities]float64

	// VFMinScale scales dynamic core and uncore power at VF-min.
	VFMinScale float64
}

// DefaultConfig returns the Xeon calibration.
func DefaultConfig() Config {
	c := Config{
		BaseFreqGHz:     2.8,
		MinFreqGHz:      1.2,
		PkgStaticW:      15.25, // ×2 sockets = 30.5; +25 DRAM = 55.5 idle
		DRAMBackgroundW: 25.0,
		UncoreActiveW:   8.0,
		HTFraction:      0.06,
		VFMinScale:      0.50,
	}
	c.ActivityW = [numActivities]float64{
		IdleDeep:    0.0,
		IdleShallow: 0.35,
		Compute:     4.0,
		MemStress:   4.2,
		SpinLocal:   3.45,
		SpinPause:   3.59, // +4 % over SpinLocal
		SpinMbar:    3.30, // −8 % under SpinPause
		SpinGlobal:  3.35, // slightly below plain local spinning (paper Fig 3)
		Mwait:       1.15, // busy-wait power ÷ ≈1.5 incl. idle benefit
	}
	c.DRAMActivityW = [numActivities]float64{
		Compute:    0.15,
		MemStress:  1.20, // 40 contexts × 1.2 ≈ the 25→74 W DRAM swing
		SpinLocal:  0.02,
		SpinPause:  0.02,
		SpinMbar:   0.02,
		SpinGlobal: 0.05,
	}
	return c
}

// Slowdown returns the instruction-latency multiplier of a VF point
// relative to VF-max.
func (c Config) Slowdown(v VF) float64 {
	if v == VFMin {
		return c.BaseFreqGHz / c.MinFreqGHz
	}
	return 1.0
}

// Energy is a snapshot of the RAPL-style counters, in Joules.
type Energy struct {
	Package float64 // includes Cores
	Cores   float64
	DRAM    float64
}

// Total returns package + DRAM energy (the paper's "total").
func (e Energy) Total() float64 { return e.Package + e.DRAM }

// Sub returns e - o component-wise.
func (e Energy) Sub(o Energy) Energy {
	return Energy{Package: e.Package - o.Package, Cores: e.Cores - o.Cores, DRAM: e.DRAM - o.DRAM}
}

// Power converts an energy delta over d cycles into average Watts using
// the reference frequency.
func (e Energy) Power(d sim.Cycles, baseGHz float64) Breakdown {
	if d == 0 {
		return Breakdown{}
	}
	sec := float64(d) / (baseGHz * 1e9)
	return Breakdown{
		Package: e.Package / sec,
		Cores:   e.Cores / sec,
		DRAM:    e.DRAM / sec,
		Total:   e.Total() / sec,
	}
}

// Breakdown is an average-power decomposition in Watts.
type Breakdown struct {
	Total   float64
	Package float64
	Cores   float64
	DRAM    float64
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total %.1f W (package %.1f, cores %.1f, DRAM %.1f)",
		b.Total, b.Package, b.Cores, b.DRAM)
}

type ctxState struct {
	act Activity
	vf  VF
}

// Meter integrates power over virtual time for one machine.
//
// The meter is incremental but bit-identical to a full re-walk of every
// core. It caches, per core, the activity watts bestW + extraW*HTFraction
// and, per context, DRAMActivityW[act] and the core's VF scale. recompute
// forms the same terms from them, coreW*scale and dramW*scale, and adds
// them in the walk's original order: cores socket-major, DRAM context by
// context within each core. The walk keeps the original expressions,
// multiply then add, so it also matches where the compiler fuses the two
// (arm64). The running sums before each core and context are kept, so a
// rebuild resumes at the lowest dirty core instead of core 0. A core's
// DRAM terms are never folded into a per-core subtotal: dram accumulates
// context by context across cores, and a subtotal would change the
// association, and with it the bits.
type Meter struct {
	k    *sim.Kernel
	cfg  Config
	topo topo.Topology
	ctxs []ctxState

	lastAt sim.Cycles
	// Accumulated energy in Watt-cycles (divide by Hz for Joules).
	accPkg, accCores, accDRAM float64
	// Current instantaneous powers, recomputed on state changes. The
	// rebuild is deferred until the powers are actually consumed — the
	// next time-advancing integrate or an instantaneous reading — so a
	// burst of transitions at one virtual instant (context switch: VF +
	// activity; wake-up chains) costs a single recompute.
	curPkg, curCores, curDRAM float64

	// dirty lists the cores whose cached watts are stale (each at most
	// once, guarded by isDirty), so it never grows past the core count.
	dirty   []int
	isDirty []bool

	// Per-core caches: coreW[c] is core c's activity watts at VF-max,
	// vfMax[c] its effective VF, coreScale[c] the matching power scale
	// (1 or VFMinScale), and coresAt[c] the cores sum before it
	// (coresAt[NumCores]: the total).
	coreW, coreScale, coresAt []float64
	vfMax                     []bool
	// Per-context caches, core-major (index c*ThreadsPerCore+ht): dramW
	// is the context's DRAM watts at VF-max, ctxScale its core's
	// coreScale, and dramAt the dram sum before it (dramAt[NumContexts]:
	// the total).
	dramW, ctxScale, dramAt []float64

	// Per-socket counters replacing the per-rebuild scans: contexts not
	// idle (the uncore is active) and cores at VF-max (the uncore runs at
	// VF-max).
	socketNonIdle, socketVFMax []int
}

// NewMeter creates a meter with every context idle-deep at VF-max.
func NewMeter(k *sim.Kernel, cfg Config, t topo.Topology) *Meter {
	nc, nctx := t.NumCores(), t.NumContexts()
	m := &Meter{
		k: k, cfg: cfg, topo: t,
		ctxs:          make([]ctxState, nctx),
		dirty:         make([]int, 0, nc),
		isDirty:       make([]bool, nc),
		coreW:         make([]float64, nc),
		coreScale:     make([]float64, nc),
		coresAt:       make([]float64, nc+1),
		vfMax:         make([]bool, nc),
		dramW:         make([]float64, nctx),
		ctxScale:      make([]float64, nctx),
		dramAt:        make([]float64, nctx+1),
		socketNonIdle: make([]int, t.Sockets),
		socketVFMax:   make([]int, t.Sockets),
	}
	for c := range m.vfMax {
		m.vfMax[c], m.coreScale[c] = true, 1.0
		m.markDirty(c)
	}
	for i := range m.ctxScale {
		m.ctxScale[i] = 1.0
	}
	for s := range m.socketVFMax {
		m.socketVFMax[s] = t.CoresPerSocket
	}
	m.dramAt[0] = cfg.DRAMBackgroundW
	m.recompute()
	return m
}

// Config returns the meter's wattage constants.
func (m *Meter) Config() Config { return m.cfg }

// Activity returns the current activity of a context.
func (m *Meter) Activity(ctx int) Activity { return m.ctxs[ctx].act }

// VFOf returns the DVFS point requested by a context. The effective core
// point is the max across hyper-thread siblings, as on real hardware.
func (m *Meter) VFOf(ctx int) VF { return m.ctxs[ctx].vf }

// SetActivity transitions a context to a new activity, integrating energy
// up to the current instant first.
func (m *Meter) SetActivity(ctx int, a Activity) {
	old := m.ctxs[ctx].act
	if old == a {
		return
	}
	m.integrate()
	m.ctxs[ctx].act = a
	core := m.topo.CoreOf(ctx)
	if old.IsIdle() != a.IsIdle() {
		if s := core / m.topo.CoresPerSocket; a.IsIdle() {
			m.socketNonIdle[s]--
		} else {
			m.socketNonIdle[s]++
		}
	}
	m.markDirty(core)
}

// SetVF sets a context's requested DVFS point.
func (m *Meter) SetVF(ctx int, v VF) {
	if m.ctxs[ctx].vf == v {
		return
	}
	m.integrate()
	m.ctxs[ctx].vf = v
	core, tpc := m.topo.CoreOf(ctx), m.topo.ThreadsPerCore
	atMax := false
	for ht := 0; ht < tpc; ht++ {
		if m.ctxs[core+ht*m.topo.NumCores()].vf == VFMax {
			atMax = true
			break
		}
	}
	if atMax == m.vfMax[core] {
		// The core's effective point is unchanged, and with it its terms.
		return
	}
	m.vfMax[core] = atMax
	scale := 1.0
	if s := core / m.topo.CoresPerSocket; atMax {
		m.socketVFMax[s]++
	} else {
		m.socketVFMax[s]--
		scale = m.cfg.VFMinScale
	}
	m.coreScale[core] = scale
	for i := core * tpc; i < (core+1)*tpc; i++ {
		m.ctxScale[i] = scale
	}
	m.markDirty(core)
}

func (m *Meter) markDirty(core int) {
	if !m.isDirty[core] {
		m.isDirty[core] = true
		m.dirty = append(m.dirty, core)
	}
}

// coreVF returns the effective VF of a physical core: the highest setting
// among its hardware threads (hyper-thread siblings share a VF domain).
func (m *Meter) coreVF(core int) VF {
	if m.vfMax[core] {
		return VFMax
	}
	return VFMin
}

// EffectiveSlowdown returns the instruction-latency multiplier currently
// applying to ctx (1.0 at VF-max). It accounts for sibling sharing: a
// context that requested VF-min still runs at VF-max speed if its sibling
// holds the core at VF-max.
func (m *Meter) EffectiveSlowdown(ctx int) float64 {
	return m.cfg.Slowdown(m.coreVF(m.topo.CoreOf(ctx)))
}

func (m *Meter) integrate() {
	now := m.k.Now()
	if now <= m.lastAt {
		m.lastAt = now
		return
	}
	// Every state change integrates before mutating, so between lastAt and
	// now the per-context state is exactly what it was at lastAt: a deferred
	// rebuild here yields the same rates (and the same summation order) as
	// an eager one at the instant of the change.
	if len(m.dirty) > 0 {
		m.recompute()
	}
	dt := float64(now - m.lastAt)
	m.accPkg += m.curPkg * dt
	m.accCores += m.curCores * dt
	m.accDRAM += m.curDRAM * dt
	m.lastAt = now
}

// recompute rebuilds the instantaneous power sums from per-context state.
//
// Only the dirty cores' cached watts are rebuilt. The sums then resume
// from the running values stored before the lowest dirty core and walk
// forward in index order (socket-major, matching the numbering), adding
// the same products in the same sequence as a walk from core 0: the
// floating-point summation order never changes. cores and dram are
// independent accumulators, so each takes its own loop. Every term is
// added, an all-idle-deep core's too, which the full walk skipped when
// IdleDeep draws 0 W: its terms are then exactly +0.0, and adding +0.0
// changes no bit of a sum that is not -0.0.
func (m *Meter) recompute() {
	nc := m.topo.NumCores()
	tpc := m.topo.ThreadsPerCore
	from := nc
	for _, core := range m.dirty {
		m.isDirty[core] = false
		from = min(from, core)
		// The busiest hyper-thread pays full activity power, siblings a
		// fraction: the core's execution resources are shared.
		bestW, extraW := 0.0, 0.0
		for ht := 0; ht < tpc; ht++ {
			act := m.ctxs[core+ht*nc].act
			w := m.cfg.ActivityW[act]
			if w > bestW {
				extraW += bestW
				bestW = w
			} else {
				extraW += w
			}
			m.dramW[core*tpc+ht] = m.cfg.DRAMActivityW[act]
		}
		m.coreW[core] = bestW + extraW*m.cfg.HTFraction
	}
	m.dirty = m.dirty[:0]

	cores := m.coresAt[from]
	coreW, coreScale, coresAt := m.coreW[from:], m.coreScale[from:], m.coresAt[from+1:]
	coreScale, coresAt = coreScale[:len(coreW)], coresAt[:len(coreW)]
	for i, w := range coreW {
		cores += w * coreScale[i]
		coresAt[i] = cores
	}
	dram := m.dramAt[from*tpc]
	dramW, ctxScale, dramAt := m.dramW[from*tpc:], m.ctxScale[from*tpc:], m.dramAt[from*tpc+1:]
	ctxScale, dramAt = ctxScale[:len(dramW)], dramAt[:len(dramW)]
	for i, w := range dramW {
		dram += w * ctxScale[i]
		dramAt[i] = dram
	}
	pkg := cores
	for s := 0; s < m.topo.Sockets; s++ {
		pkg += m.cfg.PkgStaticW
		if m.socketNonIdle[s] > 0 {
			// Uncore scales with the highest VF among the socket's cores.
			scale := 1.0
			if m.socketVFMax[s] == 0 {
				scale = m.cfg.VFMinScale
			}
			pkg += m.cfg.UncoreActiveW * scale
		}
	}
	m.curPkg, m.curCores, m.curDRAM = pkg, cores, dram
}

// Energy integrates up to now and returns the counters in Joules.
func (m *Meter) Energy() Energy {
	m.integrate()
	hz := m.cfg.BaseFreqGHz * 1e9
	return Energy{
		Package: m.accPkg / hz,
		Cores:   m.accCores / hz,
		DRAM:    m.accDRAM / hz,
	}
}

// InstantPower returns the current power breakdown in Watts.
func (m *Meter) InstantPower() Breakdown {
	if len(m.dirty) > 0 {
		m.recompute()
	}
	return Breakdown{
		Total:   m.curPkg + m.curDRAM,
		Package: m.curPkg,
		Cores:   m.curCores,
		DRAM:    m.curDRAM,
	}
}
