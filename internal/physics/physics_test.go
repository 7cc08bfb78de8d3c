package physics

import (
	"math"
	"testing"

	"genxio/internal/mesh"
	"genxio/internal/roccom"
	"genxio/internal/rt"
	"genxio/internal/stats"
)

// fluidSolid builds paired fluid (structured) and solid (tetrahedral)
// windows with n panes each.
func fluidSolid(t testing.TB, n int) (*roccom.Window, *roccom.Window, *Rocflo, *Rocfrac) {
	t.Helper()
	rc := roccom.New()
	fw, _ := rc.NewWindow("fluid")
	sw, _ := rc.NewWindow("solid")
	clock := rt.NewWallClock()
	flo, err := NewRocflo(fw, clock, 0)
	if err != nil {
		t.Fatal(err)
	}
	frac, err := NewRocfrac(sw, clock, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := mesh.GenCylinder(mesh.CylinderSpec{
		RInner: 0.1, ROuter: 0.3, Length: 0.6,
		BR: 1, BT: n, BZ: 1, NodesPerBlock: 120, Spread: 0.2,
	}, 1, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		p, err := fw.RegisterPane(b.ID, b)
		if err != nil {
			t.Fatal(err)
		}
		flo.InitPane(p)
		tet, err := mesh.Tetrahedralize(b)
		if err != nil {
			t.Fatal(err)
		}
		tet2 := *tet
		tet2.ID = b.ID + 1000
		if _, err := sw.RegisterPane(tet2.ID, &tet2); err != nil {
			t.Fatal(err)
		}
	}
	return fw, sw, flo, frac
}

func finiteAll(t *testing.T, w *roccom.Window, attr string) {
	t.Helper()
	w.EachPane(func(p *roccom.Pane) {
		a, ok := p.Array(attr)
		if !ok {
			t.Fatalf("missing %q", attr)
		}
		for i, v := range a.F64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s[%d] = %v on pane %d", attr, i, v, p.ID)
			}
		}
	})
}

func TestRocfloStepStableAndSmoothing(t *testing.T) {
	fw, _, flo, _ := fluidSolid(t, 3)
	// Perturb one pane's pressure; smoothing must reduce the spread.
	p, _ := fw.Pane(1)
	pr, _ := p.Array("pressure")
	pr.F64[0] = 6e6
	spread0 := spread(pr.F64)
	if flo.StableDt() <= 0 {
		t.Fatal("nonpositive dt bound")
	}
	for i := 0; i < 10; i++ {
		flo.Step(1e-4)
	}
	if s := spread(pr.F64); s >= spread0 {
		t.Fatalf("pressure spread grew: %v -> %v", spread0, s)
	}
	finiteAll(t, fw, "pressure")
	finiteAll(t, fw, "velocity")
	finiteAll(t, fw, "temperature")
}

func spread(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

func TestRocburnModels(t *testing.T) {
	for _, model := range []BurnModel{APN, WSB, ZN} {
		fw, _, _, _ := fluidSolid(t, 2)
		clock := rt.NewWallClock()
		burn := NewRocburn(fw, clock, model, 0)
		if burn.Name() == "" || burn.Window() != fw {
			t.Fatal("identity accessors broken")
		}
		// Initial pressure 5e6 > ignition threshold 4.5e6 on the inner
		// surface: panes ignite on the first step.
		burn.Step(1e-3)
		fw.EachPane(func(p *roccom.Pane) {
			if !burn.Ignited(p.ID) {
				t.Fatalf("%v: pane %d did not ignite at 5 MPa", model, p.ID)
			}
			br, _ := p.Array("burnrate")
			if br.F64[0] <= 0 {
				t.Fatalf("%v: zero burn rate after ignition", model)
			}
			if br.F64[0] > 0.1 {
				t.Fatalf("%v: implausible burn rate %v m/s", model, br.F64[0])
			}
		})
	}
}

func TestRocburnIgnitionThreshold(t *testing.T) {
	fw, _, _, _ := fluidSolid(t, 1)
	// Depressurize below the threshold.
	fw.EachPane(func(p *roccom.Pane) {
		pr, _ := p.Array("pressure")
		for i := range pr.F64 {
			pr.F64[i] = 1e6
		}
	})
	burn := NewRocburn(fw, rt.NewWallClock(), APN, 0)
	burn.Step(1e-3)
	fw.EachPane(func(p *roccom.Pane) {
		if burn.Ignited(p.ID) {
			t.Fatal("ignited below threshold")
		}
		br, _ := p.Array("burnrate")
		if br.F64[0] != 0 {
			t.Fatal("burning without ignition")
		}
	})
	// Pressurize: ignites and STAYS ignited even if pressure drops.
	fw.EachPane(func(p *roccom.Pane) {
		pr, _ := p.Array("pressure")
		for i := range pr.F64 {
			pr.F64[i] = 5e6
		}
	})
	burn.Step(1e-3)
	fw.EachPane(func(p *roccom.Pane) {
		pr, _ := p.Array("pressure")
		for i := range pr.F64 {
			pr.F64[i] = 1e6
		}
	})
	burn.Step(1e-3)
	fw.EachPane(func(p *roccom.Pane) {
		if !burn.Ignited(p.ID) {
			t.Fatal("ignition did not latch")
		}
		br, _ := p.Array("burnrate")
		if br.F64[0] <= 0 {
			t.Fatal("latched pane stopped burning")
		}
	})
}

func TestZNRelaxesTowardAPN(t *testing.T) {
	fw, _, _, _ := fluidSolid(t, 1)
	zn := NewRocburn(fw, rt.NewWallClock(), ZN, 0)
	apn := NewRocburn(fw, rt.NewWallClock(), APN, 0)
	var znRate, apnRate float64
	p, _ := fw.Pane(1)
	apn.Step(1e-3)
	br, _ := p.Array("burnrate")
	apnRate = br.F64[0]
	var prev float64
	for i := 0; i < 200; i++ {
		zn.Step(1e-3)
		znRate = br.F64[0]
		if znRate < prev-1e-12 {
			t.Fatal("ZN rate not monotone while relaxing")
		}
		prev = znRate
	}
	if math.Abs(znRate-apnRate) > 0.02*apnRate {
		t.Fatalf("ZN rate %v did not relax to APN %v", znRate, apnRate)
	}
}

func TestRocfaceTransfer(t *testing.T) {
	fw, sw, _, _ := fluidSolid(t, 3)
	face, err := NewRocface(fw, sw, rt.NewWallClock(), 0)
	if err != nil {
		t.Fatal(err)
	}
	face.Step(0)
	// Every solid traction value must equal some fluid pressure value;
	// with near-coincident meshes it should be close to the pane's
	// pressure field range.
	sw.EachPane(func(sp *roccom.Pane) {
		trac, _ := sp.Array("traction")
		nonzero := 0
		for _, v := range trac.F64 {
			if v != 0 {
				nonzero++
			}
			if v < 0 || v > 1e8 {
				t.Fatalf("implausible traction %v", v)
			}
		}
		if nonzero == 0 {
			t.Fatalf("no traction transferred to pane %d", sp.ID)
		}
	})
}

func TestRocfaceMismatchedPanes(t *testing.T) {
	fw, sw, _, _ := fluidSolid(t, 2)
	p, _ := sw.Pane(1001)
	_ = p
	sw.DeletePane(1001)
	if _, err := NewRocface(fw, sw, rt.NewWallClock(), 0); err == nil {
		t.Fatal("mismatched pane counts accepted")
	}
}

func TestRocfracRespondsToTraction(t *testing.T) {
	_, sw, _, frac := fluidSolid(t, 1)
	// Without traction: nothing moves.
	frac.Step(1e-4)
	sw.EachPane(func(p *roccom.Pane) {
		d, _ := p.Array("displacement")
		for _, v := range d.F64 {
			if v != 0 {
				t.Fatal("moved without load")
			}
		}
	})
	// Apply traction; displacement and stress must appear and stay finite.
	sw.EachPane(func(p *roccom.Pane) {
		trac, _ := p.Array("traction")
		for i := range trac.F64 {
			trac.F64[i] = 5e6
		}
	})
	for i := 0; i < 50; i++ {
		frac.Step(1e-4)
	}
	var moved bool
	sw.EachPane(func(p *roccom.Pane) {
		d, _ := p.Array("displacement")
		for _, v := range d.F64 {
			if v != 0 {
				moved = true
			}
		}
		st, _ := p.Array("stress")
		var anyStress bool
		for _, v := range st.F64 {
			if v > 0 {
				anyStress = true
			}
		}
		if !anyStress {
			t.Fatal("no stress under load")
		}
	})
	if !moved {
		t.Fatal("no displacement under load")
	}
	finiteAll(t, sw, "displacement")
	finiteAll(t, sw, "velocity")
	finiteAll(t, sw, "stress")
}

// countClock verifies the compute-cost charging used by the simulation.
type countClock struct{ total float64 }

func (c *countClock) Now() float64      { return 0 }
func (c *countClock) Compute(d float64) { c.total += d }

func TestComputeCostCharged(t *testing.T) {
	rc := roccom.New()
	fw, _ := rc.NewWindow("fluid")
	clock := &countClock{}
	flo, _ := NewRocflo(fw, clock, 1e-6)
	blocks, _ := mesh.GenCylinder(mesh.CylinderSpec{
		RInner: 0.1, ROuter: 0.3, Length: 0.6,
		BR: 1, BT: 2, BZ: 1, NodesPerBlock: 100,
	}, 1, stats.NewRNG(2))
	var nodes int
	for _, b := range blocks {
		p, _ := fw.RegisterPane(b.ID, b)
		flo.InitPane(p)
		nodes += b.NumNodes()
	}
	flo.Step(1e-4)
	want := float64(nodes) * 1e-6
	if math.Abs(clock.total-want) > 1e-12 {
		t.Fatalf("charged %v, want %v", clock.total, want)
	}
}

func TestCoupledLoopEnergyBounded(t *testing.T) {
	// Run the full coupled loop (flo + burn + face + frac) and verify
	// everything stays finite and the chamber pressurizes (burning adds
	// mass).
	fw, sw, flo, frac := fluidSolid(t, 2)
	burn := NewRocburn(fw, rt.NewWallClock(), APN, 0)
	face, err := NewRocface(fw, sw, rt.NewWallClock(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := fw.Pane(1)
	pr, _ := p.Array("pressure")
	mean := func() float64 {
		var s float64
		for _, v := range pr.F64 {
			s += v
		}
		return s / float64(len(pr.F64))
	}
	p0 := mean()
	dt := 1e-4
	for i := 0; i < 100; i++ {
		flo.Step(dt)
		burn.Step(dt)
		face.Step(dt)
		frac.Step(dt)
	}
	finiteAll(t, fw, "pressure")
	finiteAll(t, sw, "stress")
	if mean() <= p0 {
		t.Fatalf("chamber did not pressurize: mean %v -> %v", p0, mean())
	}
}
