// Package physics provides simplified but genuine counterparts of GENx's
// computation modules, each operating on Roccom windows exactly the way
// the paper describes (Figure 1(a)): Rocflo (structured-mesh gas
// dynamics), Rocfrac (unstructured structural mechanics), Rocburn
// (burn-rate models at the propellant surface), and Rocface (fluid-solid
// interface transfer).
//
// The solvers do real array arithmetic per block — snapshots therefore
// contain evolving state that restarts must reproduce bit-for-bit — and
// additionally charge a calibrated per-node CPU cost to the platform
// clock, which is what lets a laptop-scale mesh stand in for the paper's
// production problems when regenerating the timing tables.
package physics

import (
	"math"

	"genxio/internal/hdf"
	"genxio/internal/roccom"
	"genxio/internal/rt"
)

// Solver is one physics module: it owns a window and advances it by one
// explicit timestep.
type Solver interface {
	// Name identifies the module ("Rocflo-MP", ...).
	Name() string
	// Window returns the module's Roccom window.
	Window() *roccom.Window
	// StableDt returns the largest stable timestep for the module's
	// current state, so the global dt is a pure function of state (and
	// restart reproduces the original trajectory exactly).
	StableDt() float64
	// Step advances the local panes by dt.
	Step(dt float64)
}

// Rocflo is the structured-mesh explicit gas-dynamics solver: pressure
// relaxes by neighbor averaging (a Jacobi smoothing of the acoustic
// field), velocity follows the pressure gradient, and the burning surface
// (the innermost i-plane of each block) receives mass from Rocburn's
// regression rate.
type Rocflo struct {
	win         *roccom.Window
	clock       rt.Clock
	costPerNode float64
	scratch     []float64
}

// Fluid window attribute specs registered by NewRocflo.
var fluidAttrs = []roccom.AttrSpec{
	{Name: "pressure", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1},
	{Name: "velocity", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 3},
	{Name: "temperature", Loc: roccom.NodeLoc, Type: hdf.F64, NComp: 1},
	{Name: "burnrate", Loc: roccom.PaneLoc, Type: hdf.F64, NComp: 1},
}

// NewRocflo declares the fluid attributes on win (which must already hold
// structured panes, or gain them later) and initializes the state of every
// registered pane. costPerNode is the CPU seconds charged per mesh node
// per step.
func NewRocflo(win *roccom.Window, clock rt.Clock, costPerNode float64) (*Rocflo, error) {
	for _, s := range fluidAttrs {
		if err := win.NewAttribute(s); err != nil {
			return nil, err
		}
	}
	r := &Rocflo{win: win, clock: clock, costPerNode: costPerNode}
	win.EachPane(func(p *roccom.Pane) { r.initPane(p) })
	return r, nil
}

// InitPane initializes a pane registered after construction.
func (r *Rocflo) InitPane(p *roccom.Pane) { r.initPane(p) }

func (r *Rocflo) initPane(p *roccom.Pane) {
	pr, _ := p.Array("pressure")
	tm, _ := p.Array("temperature")
	for i := range pr.F64 {
		// Chamber pressure ~ 5 MPa with a mild axial gradient.
		_, _, z := p.Block.Node(i)
		pr.F64[i] = 5e6 * (1 - 0.05*z)
		tm.F64[i] = 300
	}
	br, _ := p.Array("burnrate")
	br.F64[0] = 0
}

// Name implements Solver.
func (r *Rocflo) Name() string { return "Rocflo-MP" }

// Window implements Solver.
func (r *Rocflo) Window() *roccom.Window { return r.win }

// StableDt implements Solver: the acoustic CFL bound for the lab-scale
// chamber.
func (r *Rocflo) StableDt() float64 { return 1e-4 }

// Step implements Solver.
func (r *Rocflo) Step(dt float64) {
	var nodes int
	r.win.EachPane(func(p *roccom.Pane) {
		nodes += p.Block.NumNodes()
		r.stepPane(p, dt)
	})
	r.clock.Compute(float64(nodes) * r.costPerNode)
}

func (r *Rocflo) stepPane(p *roccom.Pane, dt float64) {
	b := p.Block
	pr, _ := p.Array("pressure")
	vel, _ := p.Array("velocity")
	tm, _ := p.Array("temperature")
	br, _ := p.Array("burnrate")
	n := b.NumNodes()
	if cap(r.scratch) < n {
		r.scratch = make([]float64, n)
	}
	next := r.scratch[:n]

	idx := func(i, j, k int) int { return (k*b.NJ+j)*b.NI + i }
	const kappa = 0.2 // smoothing strength per step
	for k := 0; k < b.NK; k++ {
		for j := 0; j < b.NJ; j++ {
			for i := 0; i < b.NI; i++ {
				c := idx(i, j, k)
				sum, cnt := 0.0, 0
				if i > 0 {
					sum += pr.F64[idx(i-1, j, k)]
					cnt++
				}
				if i < b.NI-1 {
					sum += pr.F64[idx(i+1, j, k)]
					cnt++
				}
				if j > 0 {
					sum += pr.F64[idx(i, j-1, k)]
					cnt++
				}
				if j < b.NJ-1 {
					sum += pr.F64[idx(i, j+1, k)]
					cnt++
				}
				if k > 0 {
					sum += pr.F64[idx(i, j, k-1)]
					cnt++
				}
				if k < b.NK-1 {
					sum += pr.F64[idx(i, j, k+1)]
					cnt++
				}
				avg := sum / float64(cnt)
				next[c] = pr.F64[c] + kappa*(avg-pr.F64[c])
				// Mass addition from the burning surface (i = 0
				// plane faces the propellant).
				if i == 0 {
					next[c] += 2e8 * br.F64[0] * dt
				}
			}
		}
	}
	copy(pr.F64, next)
	// Velocity follows the local pressure gradient along i; temperature
	// tracks pressure adiabatically (toy closure).
	for k := 0; k < b.NK; k++ {
		for j := 0; j < b.NJ; j++ {
			for i := 0; i < b.NI; i++ {
				c := idx(i, j, k)
				var grad float64
				if i < b.NI-1 {
					grad = pr.F64[idx(i+1, j, k)] - pr.F64[c]
				} else if i > 0 {
					grad = pr.F64[c] - pr.F64[idx(i-1, j, k)]
				}
				vel.F64[3*c] += -1e-6 * grad * dt
				tm.F64[c] = 300 * math.Pow(pr.F64[c]/5e6, 0.2857)
			}
		}
	}
}
