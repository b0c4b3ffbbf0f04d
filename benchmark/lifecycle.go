package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/holisticim/holisticim"
)

// sketchLifecycle is build-once, serve-many — where the RIS memory
// weakness lives. One op is one round: build the IC and OC sketches on
// ba-wc and the IC sketch on ba-p10, Save each, Load each, then on each
// loaded index Select(50), Select(100) (lazy extension) and 200
// memoized selects.
type sketchLifecycle struct {
	wcPath, p10Path string
	wc, p10         *holisticim.Graph
	skSeed          uint64
}

const (
	extendK     = 100
	memoSelects = 200
)

func (w *sketchLifecycle) gen(rc *runContext) error {
	var err error
	if w.wcPath, _, err = writeGraph(rc.dir, specBAWC, rc.seed); err != nil {
		return err
	}
	w.p10Path, _, err = writeGraph(rc.dir, specBAP10, rc.seed)
	w.skSeed = sketchSeedFor(rc.seed)
	return err
}

// setup loads the graphs and runs one untimed round: the warm-up, and
// the one that carries the memory checkpoint.
func (w *sketchLifecycle) setup(rc *runContext) error {
	var err error
	if w.wc, err = readGraphFile(w.wcPath); err != nil {
		return err
	}
	if w.p10, err = readGraphFile(w.p10Path); err != nil {
		return err
	}
	_, _, _, err = w.round(nil, &rc.mem)
	return err
}

func (w *sketchLifecycle) teardown() { w.wc, w.p10 = nil, nil }

type sketchCase struct {
	name  string
	g     *holisticim.Graph
	model holisticim.ModelKind
}

func (w *sketchLifecycle) cases() []sketchCase {
	return []sketchCase{
		{"wc", w.wc, holisticim.ModelIC},
		{"oc", w.wc, holisticim.ModelOC},
		{"p10", w.p10, holisticim.ModelIC},
	}
}

// round runs one lifecycle pass and returns the build and load sums. It
// fails when a loaded index answers differently from the one built. mem,
// when set, takes a checkpoint at the round's memory peak; the time that
// takes is not part of the round.
func (w *sketchLifecycle) round(tr *Tracer, mem *residentMeter) (total, build, load time.Duration, err error) {
	ctx := context.Background()
	op := tr.newOp()
	root := tr.start(op, 0, "workload", "lifecycle-round")
	var checkpoints time.Duration
	cases := w.cases()
	built := make([]*holisticim.Sketch, len(cases))
	snaps := make([]bytes.Buffer, len(cases))
	for i, c := range cases {
		build += tr.call(op, root.id(), "sketch", "Build:"+c.name, func() {
			built[i], err = holisticim.BuildSketch(ctx, c.g, holisticim.SketchOptions{
				Model: c.model, Epsilon: sketchEpsilon, Seed: w.skSeed, BuildK: sketchBuildK})
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("build %s: %w", c.name, err)
		}
	}
	if mem != nil { // all three indexes live: the round's memory peak
		before := mem.spent
		mem.checkpoint()
		checkpoints = mem.spent - before
	}
	for i, c := range cases {
		tr.call(op, root.id(), "sketch", "Save:"+c.name, func() { err = holisticim.WriteSketch(&snaps[i], built[i]) })
		if err != nil {
			return 0, 0, 0, fmt.Errorf("save %s: %w", c.name, err)
		}
	}
	for i, c := range cases {
		want, err := built[i].Select(ctx, selectK)
		if err != nil {
			return 0, 0, 0, err
		}
		built[i] = nil // only the loaded copy serves from here on
		var loaded *holisticim.Sketch
		load += tr.call(op, root.id(), "sketch", "Load:"+c.name, func() {
			loaded, err = holisticim.ReadSketch(bytes.NewReader(snaps[i].Bytes()), c.g)
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("load %s: %w", c.name, err)
		}
		var first, ext holisticim.Result
		tr.call(op, root.id(), "sketch", "Select:first", func() { first, err = loaded.Select(ctx, selectK) })
		if err != nil {
			return 0, 0, 0, err
		}
		tr.call(op, root.id(), "sketch", "Select:extend", func() { ext, err = loaded.Select(ctx, extendK) })
		if err != nil {
			return 0, 0, 0, err
		}
		if !slices.Equal(first.Seeds, want.Seeds) {
			return 0, 0, 0, fmt.Errorf("%s: loaded index selects differently from the built one", c.name)
		}
		var memoErr error
		tr.call(op, root.id(), "sketch", "Select:memo", func() {
			for j := 0; j < memoSelects; j++ {
				// The two budgets already served: theta(k) for a small k
				// can exceed theta(50) (the OPT bound shrinks faster than
				// lambda*), and that select would extend, not hit the memo.
				k := selectK + (j%2)*(extendK-selectK)
				r, err := loaded.Select(ctx, k)
				if err != nil {
					memoErr = err
					return
				}
				if !slices.Equal(r.Seeds, ext.Seeds[:k]) {
					memoErr = fmt.Errorf("%s: memoized k=%d is not a prefix of k=%d", c.name, k, extendK)
					return
				}
			}
		})
		if memoErr != nil {
			return 0, 0, 0, memoErr
		}
	}
	return root.end(nil) - checkpoints, build, load, nil
}

func (w *sketchLifecycle) run(rc *runContext, d time.Duration, tr *Tracer) (*phase, error) {
	ph := &phase{windows: newWindowMeter()}
	var builds, loads samples
	start := time.Now()
	for time.Since(start) < d || ph.attempted < 2 {
		total, build, load, err := w.round(tr, nil)
		ph.attempted++
		if err != nil {
			ph.windows.mark()
			ph.fail("round %d: %v", ph.attempted, err)
			continue
		}
		ph.windows.opDone(ms(total))
		ph.windows.mark()
		builds.add(build.Seconds())
		loads.add(load.Seconds())
	}
	if len(builds) > 0 {
		// The quiet rounds, as for op_p50_ms.
		ph.set("sketch_build_s", builds.quantile(25))
		ph.set("sketch_load_s", loads.quantile(25))
	}
	return ph, nil
}

func (w *sketchLifecycle) verify(rc *runContext, ph *phase) error { return nil }
