package tune

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func testBoxConfig() workload.BoxConfig {
	cfg := workload.DefaultUniformBoxes()
	cfg.NumPoints = 700
	cfg.Ticks = 10
	cfg.SpaceSize = 2000
	cfg.MaxSpeed = 50
	cfg.QuerySize = 150
	cfg.MinSide = 5
	cfg.MaxSide = 240
	return cfg
}

// TestAutoBoxJoinDigestMatrix extends the box digest matrix to the
// adaptive index: across workload kinds and both drivers, AutoBox must
// reproduce the brute-force digest exactly — and, because it delegates,
// be bit-identical to the static family the selector chose, which the
// test verifies by rerunning that family directly.
func TestAutoBoxJoinDigestMatrix(t *testing.T) {
	configs := []workload.BoxConfig{
		testBoxConfig(),
		func() workload.BoxConfig {
			c := testBoxConfig()
			c.Config.Kind = workload.Gaussian
			c.Hotspots = 5
			c.Extent = workload.ExtentGaussian
			return c
		}(),
		func() workload.BoxConfig {
			c := testBoxConfig()
			c.Config.Kind = workload.Simulation
			c.Hotspots = 4
			return c
		}(),
	}
	for _, cfg := range configs {
		t.Run(fmt.Sprintf("%s-%s", cfg.Kind, cfg.Extent), func(t *testing.T) {
			params := core.ParamsFor(cfg.Config)
			ref := core.RunBoxes(core.NewBruteForceBoxes(), workload.MustNewBoxGenerator(cfg), core.Options{})
			if ref.Pairs == 0 {
				t.Fatal("reference run found no pairs; workload too sparse to be meaningful")
			}

			auto := NewAutoBox(params)
			res := core.RunBoxes(auto, workload.MustNewBoxGenerator(cfg), core.Options{})
			if res.Pairs != ref.Pairs || res.Hash != ref.Hash {
				t.Errorf("sequential %s: (%d, %#x), want (%d, %#x)",
					res.Technique, res.Pairs, res.Hash, ref.Pairs, ref.Hash)
			}

			// Bit-identical to the chosen static family: rerun it directly.
			choice, ok := auto.Choice()
			if !ok {
				t.Fatal("auto never selected a structure")
			}
			static := core.RunBoxes(choice.NewBoxIndex(params), workload.MustNewBoxGenerator(cfg), core.Options{})
			if static.Pairs != res.Pairs || static.Hash != res.Hash {
				t.Errorf("auto (%d, %#x) diverges from its own pick %s (%d, %#x)",
					res.Pairs, res.Hash, choice, static.Pairs, static.Hash)
			}

			for _, workers := range []int{2, 4} {
				res := core.RunBoxesParallel(NewAutoBox(params), workload.MustNewBoxGenerator(cfg), core.Options{}, workers)
				if res.Pairs != ref.Pairs || res.Hash != ref.Hash {
					t.Errorf("parallel(%d): (%d, %#x), want (%d, %#x)",
						workers, res.Pairs, res.Hash, ref.Pairs, ref.Hash)
				}
			}
		})
	}
}

// TestAutoPointDigestMatrix is the point counterpart: Auto vs the brute
// oracle under both drivers, plus the bit-identity check against the
// selected static layout.
func TestAutoPointDigestMatrix(t *testing.T) {
	configs := []workload.Config{
		func() workload.Config {
			c := workload.DefaultUniform()
			c.NumPoints = 900
			c.Ticks = 8
			c.SpaceSize = 2500
			c.QuerySize = 180
			return c
		}(),
		func() workload.Config {
			c := workload.DefaultGaussian()
			c.NumPoints = 900
			c.Ticks = 8
			c.SpaceSize = 2500
			c.QuerySize = 180
			c.Hotspots = 4
			return c
		}(),
	}
	for _, cfg := range configs {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			trace, err := workload.Record(cfg)
			if err != nil {
				t.Fatal(err)
			}
			params := core.ParamsFor(cfg)
			ref := core.Run(core.NewBruteForce(), workload.NewPlayer(trace), core.Options{})
			if ref.Pairs == 0 {
				t.Fatal("reference run found no pairs")
			}
			auto := NewAuto(params)
			res := core.Run(auto, workload.NewPlayer(trace), core.Options{})
			if res.Pairs != ref.Pairs || res.Hash != ref.Hash {
				t.Errorf("sequential %s: (%d, %#x), want (%d, %#x)",
					res.Technique, res.Pairs, res.Hash, ref.Pairs, ref.Hash)
			}
			choice, ok := auto.Choice()
			if !ok {
				t.Fatal("auto never selected a structure")
			}
			static := core.Run(choice.NewPointIndex(params), workload.NewPlayer(trace), core.Options{})
			if static.Pairs != res.Pairs || static.Hash != res.Hash {
				t.Errorf("auto (%d, %#x) diverges from its own pick %s (%d, %#x)",
					res.Pairs, res.Hash, choice, static.Pairs, static.Hash)
			}
			for _, workers := range []int{2, 4} {
				res := core.RunParallel(NewAuto(params), workload.NewPlayer(trace), core.Options{}, workers)
				if res.Pairs != ref.Pairs || res.Hash != ref.Hash {
					t.Errorf("parallel(%d): (%d, %#x), want (%d, %#x)",
						workers, res.Pairs, res.Hash, ref.Pairs, ref.Hash)
				}
			}
		})
	}
}

// TestAutoNameCarriesDecision pins the reporting contract: "auto"
// before the first build, the decision afterwards.
func TestAutoNameCarriesDecision(t *testing.T) {
	cfg := testBoxConfig()
	a := NewAutoBox(core.ParamsFor(cfg.Config))
	if a.Name() != "boxauto" {
		t.Errorf("pre-build name = %q", a.Name())
	}
	gen := workload.MustNewBoxGenerator(cfg)
	a.Build(gen.Rects(nil))
	if _, ok := a.Choice(); !ok {
		t.Fatal("no choice after build")
	}
	name := a.Name()
	if name == "boxauto" || len(name) < len("boxauto(x)") {
		t.Errorf("post-build name %q does not carry the decision", name)
	}
	if a.Len() == 0 {
		t.Error("Len() = 0 after build")
	}
}
