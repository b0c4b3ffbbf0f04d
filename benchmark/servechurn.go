package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/cluster"
	"github.com/holisticim/holisticim/internal/service"
)

// serveChurn uses the sketch layer differently: writes beside reads. An
// open loop sends imm ks=[10,25,50] reads at a fixed rate while a
// 10-op edge batch lands every mutateEvery. Each batch makes the sketch
// stale until the background repair catches up: reads arriving while
// the repair holds the index lock wait it out, and a read that reaches
// the planner between the graph swap and the repair taking the lock
// falls to a cold IMM job.
type serveChurn struct {
	graphPath string
	skSeed    uint64
	sketchID  string
	readBody  string
	batches   []service.MutateRequest
	nextBatch int

	srv     *service.Server
	replica *endpoint
	reads   *client
	writes  *client
}

const (
	churnReadRate  = 50 // reads per second, fixed schedule
	churnReaders   = 2
	mutateEvery    = time.Second
	mutationOps    = 10
	churnBatches   = 256 // enough for any -seconds the contract allows, twice over
	repairPoll     = 2 * time.Millisecond
	churnSketchCap = 100000
)

var churnKs = []int{10, 25, 50}

func (w *serveChurn) gen(rc *runContext) error {
	path, g, err := writeGraph(rc.dir, specBAWC, rc.seed)
	if err != nil {
		return err
	}
	w.graphPath = path
	w.skSeed = sketchSeedFor(rc.seed)
	w.sketchID = cluster.SketchIDOf(graphName, "ic", sketchEpsilon, w.skSeed)
	w.readBody = mustJSON(service.QueryRequest{Graph: graphName, Algorithm: "imm", Ks: churnKs,
		Options: service.Options{Epsilon: sketchEpsilon, Seed: w.skSeed}})
	w.batches = genMutations(g, churnBatches, mutationOps, rc.seed)
	return writeJSONFile(rc.path("mutations.json"), w.batches)
}

// sketchSpec is the index the replica builds at set-up. The cap sits
// below the natural theta so the sample size is pinned: Repair preserves
// the count, and the end-of-run oracle — a fresh build on the final
// graph under the same cap — must then hold exactly the same sets.
func (w *serveChurn) sketchSpec() service.SketchSpec {
	return service.SketchSpec{Graph: graphName, Epsilon: sketchEpsilon, Seed: w.skSeed,
		BuildK: sketchBuildK, MaxSets: churnSketchCap}
}

func (w *serveChurn) setup(rc *runContext) error {
	var err error
	if w.srv, err = newServer(w.graphPath, service.Config{}); err != nil {
		return err
	}
	if w.replica, err = serve(w.srv.Handler()); err != nil {
		return err
	}
	w.reads = newClient(w.replica.url, churnReaders)
	w.writes = newClient(w.replica.url, 1)
	w.nextBatch = 0

	status, data, err := w.writes.post("/v1/sketches", mustJSON(w.sketchSpec()))
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("POST /v1/sketches: status %d: %s", status, data)
	}
	var job service.SelectResponse
	if err := json.Unmarshal(data, &job); err != nil {
		return err
	}
	if _, err := w.writes.followJob(job.JobID); err != nil {
		return fmt.Errorf("sketch build: %w", err)
	}
	_, served, err := w.read(nil, 0)
	if err == nil && !served {
		err = fmt.Errorf("warm-up read was not sketch-served")
	}
	return err
}

func (w *serveChurn) teardown() {
	if w.reads != nil {
		w.reads.close()
		w.writes.close()
		w.reads = nil
	}
	if w.replica != nil {
		w.replica.close()
		w.replica = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

// read sends one batch select and checks the prefix invariant: the
// content changes under churn, so there is no fixed answer to compare
// with, but k=10 must prefix k=25 must prefix k=50 in every answer.
func (w *serveChurn) read(tr *Tracer, opID int) (seeds []holisticim.NodeID, sketchServed bool, err error) {
	root := tr.start(opID, 0, "workload", "churn:read")
	defer root.end(nil)
	var resp service.QueryResponse
	tr.call(opID, root.id(), "service", "POST /v2/query:imm", func() { resp, err = w.reads.query(w.readBody) })
	if err != nil {
		return nil, false, err
	}
	if resp.Answer == nil || len(resp.Answer.Members) != len(churnKs) {
		return nil, false, fmt.Errorf("read: answer has no %d members", len(churnKs))
	}
	var prev []holisticim.NodeID
	for i, k := range churnKs {
		r := resp.Answer.Members[i].Result
		if r == nil || len(r.Seeds) != k || !slices.Equal(r.Seeds[:len(prev)], prev) {
			return nil, false, fmt.Errorf("read: k=%d answer breaks the prefix invariant", k)
		}
		prev = r.Seeds
	}
	return prev, resp.Sketch, nil
}

// sketchVersion reads the graph_version the replica's sketch reports.
func (w *serveChurn) sketchVersion() (uint64, error) {
	status, data, err := w.writes.get("/v1/sketches/" + w.sketchID)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET sketch: status %d: %s", status, data)
	}
	var info service.SketchInfo
	err = json.Unmarshal(data, &info)
	return info.GraphVersion, err
}

// mutate posts the next batch and waits for the repair to land. Returns
// the POST's time to ack and the lag from ack to the repaired version.
func (w *serveChurn) mutate(tr *Tracer) (ack, lag time.Duration, err error) {
	if w.nextBatch >= len(w.batches) {
		return 0, 0, fmt.Errorf("out of generated mutation batches")
	}
	body := mustJSON(w.batches[w.nextBatch])
	w.nextBatch++
	opID := tr.newOp()
	root := tr.start(opID, 0, "workload", "churn:mutate")
	defer root.end(nil)
	var status int
	var data []byte
	ack = tr.call(opID, root.id(), "service", "POST /v1/graphs/{name}/edges", func() {
		status, data, err = w.writes.post("/v1/graphs/"+graphName+"/edges", body)
	})
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("mutate: status %d: %s", status, data)
	}
	var resp service.MutateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, 0, err
	}
	acked := time.Now()
	span := tr.start(opID, root.id(), "sketch", "repair-lag")
	defer span.end(nil)
	for {
		v, err := w.sketchVersion()
		if err != nil {
			return 0, 0, err
		}
		if v >= resp.Version {
			return ack, time.Since(acked), nil
		}
		if time.Since(acked) > opTimeout {
			return 0, 0, fmt.Errorf("repair to version %d did not land in %s", resp.Version, opTimeout)
		}
		time.Sleep(repairPoll)
	}
}

func (w *serveChurn) run(rc *runContext, d time.Duration, tr *Tracer) (*phase, error) {
	ph := &phase{windows: newWindowMeter()}
	var mu sync.Mutex
	var acks, lags samples
	served := 0

	// The writer runs beside the open-loop readers on its own schedule
	// and connection until the read schedule is exhausted. It also cuts
	// the phase's windows, one per batch starting with the batch: every
	// window then holds exactly one mutation, its repair and the reads
	// beside them. Windows cut by an independent one-second ticker would
	// drift against the batches and hold none or two.
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		tick := time.NewTicker(mutateEvery)
		defer tick.Stop()
		for first := true; ; first = false {
			if !first {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				ph.windows.mark()
			}
			ack, lag, err := w.mutate(tr)
			mu.Lock()
			ph.attempted++
			if err != nil {
				ph.fail("%v", err)
			} else {
				acks.addDur(ack)
				lags.addDur(lag)
			}
			mu.Unlock()
		}
	}()

	due := schedule(int(d.Seconds()*churnReadRate), time.Second/churnReadRate)
	start := time.Now()
	log := openLoop(due, churnReaders, func(i int) {
		_, sk, err := w.read(tr, tr.newOp())
		mu.Lock()
		defer mu.Unlock()
		ph.attempted++
		if err != nil {
			ph.fail("%v", err)
			return
		}
		ph.windows.opDone(ms(time.Since(start) - due[i]))
		if sk {
			served++
		}
	})
	close(stop)
	writer.Wait()

	late, err := log.checkLateness()
	if err != nil {
		return nil, err
	}
	ph.set("gen_late_p99_ms", late)
	ph.set("sketch_served_ratio", float64(served)/float64(len(due)))
	if len(acks) > 0 {
		ph.set("mutate_p50_ms", acks.median())
		ph.set("repair_lag_p50_ms", lags.median())
	}
	return ph, nil
}

// verify is the repair oracle: after the last batch's repair landed, the
// served k=50 answer must equal a fresh build on the final graph.
func (w *serveChurn) verify(rc *runContext, ph *phase) error {
	// Let cold jobs still running finish before measuring end-of-run
	// memory. It is not folded into resident_mb: every read that went
	// cold left a job record pinning the graph snapshot it ran on, and how
	// many did is a race the benchmark does not control.
	for deadline := time.Now().Add(opTimeout); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if st := w.srv.Stats(); st.JobsRunning == 0 && st.QueueDepth == 0 {
			break
		}
	}
	var end residentMeter
	end.checkpoint()
	ph.set("resident_end_mb", end.mb())
	ph.attempted++
	got, served, err := w.read(nil, 0)
	if err != nil {
		ph.fail("final read: %v", err)
		return nil
	}
	if !served {
		ph.fail("final read was not sketch-served: the repair did not re-match the index")
		return nil
	}
	final, err := w.srv.Registry().Get(graphName)
	if err != nil {
		return err
	}
	spec := w.sketchSpec()
	fresh, err := holisticim.BuildSketch(context.Background(), final, holisticim.SketchOptions{
		Epsilon: spec.Epsilon, Seed: spec.Seed, BuildK: spec.BuildK, MaxSets: spec.MaxSets})
	if err != nil {
		return err
	}
	want, err := fresh.Select(context.Background(), selectK)
	if err != nil {
		return err
	}
	if !slices.Equal(got, want.Seeds) {
		ph.fail("repaired sketch's k=%d answer differs from a fresh build on the final graph", selectK)
	}
	return nil
}
