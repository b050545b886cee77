package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"rsr/internal/cas"
	"rsr/internal/cluster"
	"rsr/internal/engine"
	"rsr/internal/experiments"
)

// fabricEnv is an in-process sweep fabric: one coordinator with an
// in-memory CAS store served on loopback, one peer with product defaults on
// an engine with GOMAXPROCS workers, and a lab submitting through a
// cluster.Client. Figure 7 is regenerated through it at shard count 1.
type fabricEnv struct {
	progs  []program
	store  *cas.Store
	co     *cluster.Coordinator
	srv    *http.Server
	served chan error
	eng    *engine.Engine
	peer   *cluster.Peer
	rt     *countingTransport
	runner *timedRunner
	lab    *experiments.Lab
}

// fabricStats is what one fabric pass reports for the engine, cluster and
// cas layers.
type fabricStats struct {
	Workers  int
	CAS      cas.Stats
	Requests int64
	Busy     int64 // 503 responses the client absorbed and retried
	Jobs     []jobRecord
}

// jobRecord is one fabric job as the client saw it.
type jobRecord struct {
	Key  string
	Wall time.Duration // the engine's execution time (Result.Wall)
}

func setupFabric(exp *expected, seed int64) (env, error) {
	progs, err := buildPrograms(exp)
	if err != nil {
		return nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	e := &fabricEnv{progs: progs, store: cas.NewStore("")}
	e.co = cluster.NewCoordinator(cluster.CoordinatorOptions{Store: e.store, Log: quiet})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.co.Close()
		return nil, err
	}
	base := "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: cluster.NewServer(e.co, nil, quiet).Routes()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()

	e.eng = engine.New(engine.Options{Workers: runtime.GOMAXPROCS(0)})
	e.peer, err = cluster.NewPeer(cluster.PeerOptions{Node: "perfbench-peer", Coordinator: base, Engine: e.eng, Log: quiet})
	if err == nil {
		err = e.peer.Start()
	}
	if err != nil {
		e.peer = nil
		e.close()
		return nil, fmt.Errorf("fabric peer: %w", err)
	}

	e.rt = &countingTransport{base: &http.Transport{}}
	cl := cluster.NewClient(base, "perfbench", &http.Client{Transport: e.rt, Timeout: 30 * time.Second})
	if _, err := cl.Handshake(context.Background()); err != nil {
		e.close()
		return nil, err
	}
	e.runner = &timedRunner{cl: cl}
	cfg := experiments.Config{Scale: float64(total) / float64(experiments.DefaultConfig().Total()), Seed: seed, Runner: e.runner}
	e.lab = experiments.NewLab(cfg)
	if got := e.lab.Config().Total(); got != total {
		e.close()
		return nil, fmt.Errorf("fabric lab scales to %d instructions, want %d", got, total)
	}
	e.rt.reset()
	return e, nil
}

func (e *fabricEnv) close() {
	if e.peer != nil {
		e.peer.Close()
	}
	e.eng.Close()
	if e.srv != nil {
		if err := e.srv.Close(); err == nil {
			<-e.served
		}
	}
	if e.rt != nil {
		e.rt.base.CloseIdleConnections()
	}
	e.co.Close()
}

func (e *fabricEnv) pass() (*pass, error) {
	before := e.eng.Stats()
	p, err := timePass(func(p *pass) error {
		fig, err := e.lab.Figure7()
		if err != nil {
			return err
		}
		trueIPC := map[string]float64{}
		for _, t := range e.runner.tickets {
			if t.job.Kind == engine.JobFull {
				trueIPC[t.job.Workload] = t.res.Full.Result.IPC()
			}
		}
		st := &fabricStats{Workers: e.eng.Workers()}
		for _, t := range e.runner.tickets {
			if t.job.Kind == engine.JobFull {
				r := t.res.Full.Result
				p.Ops = append(p.Ops, op{Key: fullKey(t.job.Workload), IPC: r.IPC(), Cycles: r.Cycles,
					Instrs: r.Instructions, Latency: t.latency})
			} else {
				p.addRun(cellKey(t.job), t.res.Sampled, trueIPC[t.job.Workload], t.latency)
			}
			st.Jobs = append(st.Jobs, jobRecord{Key: p.Ops[len(p.Ops)-1].Key, Wall: t.res.Wall})
		}
		if want := 9 * 9; len(fig.Cells) != want {
			return fmt.Errorf("figure 7 has %d cells, want %d", len(fig.Cells), want)
		}
		p.Fabric = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	after := e.eng.Stats()
	p.Fabric.CAS = e.store.Stats()
	p.Fabric.Requests, p.Fabric.Busy = e.rt.requests.Load(), e.rt.busy.Load()
	p.Counters["engine.jobs"] = uint64(after.Done - before.Done)
	p.Counters["engine.coalesced"] = uint64(after.Coalesced - before.Coalesced)
	p.Counters["cas.puts"] = uint64(p.Fabric.CAS.Puts)
	return p, nil
}

// replay repeats Figure 7's sampled cells; the true-IPC jobs have no
// warm-up method to wrap.
func (e *fabricEnv) replay() []replayRun {
	byName := map[string]program{}
	for _, pr := range e.progs {
		byName[pr.name] = pr
	}
	var out []replayRun
	for _, t := range e.runner.tickets {
		if t.job.Kind == engine.JobSampled {
			out = append(out, replayRun{key: cellKey(t.job), prog: byName[t.job.Workload], seed: t.job.Seed, spec: t.job.Warmup})
		}
	}
	return out
}

func fullKey(prog string) string { return "full/" + prog }

func cellKey(j engine.Job) string { return j.Workload + "/" + j.Warmup.Label() }

// timedRunner is the lab's Runner: it submits through the cluster client
// and times each job from the Submit call to the return of its Wait.
type timedRunner struct {
	cl      *cluster.Client
	tickets []*timedTicket
}

func (r *timedRunner) Submit(ctx context.Context, job engine.Job) (experiments.Waiter, error) {
	t0 := time.Now()
	tk, err := r.cl.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	t := &timedTicket{tk: tk, job: job, submitted: t0}
	r.tickets = append(r.tickets, t)
	return t, nil
}

func (r *timedRunner) Close() {}

type timedTicket struct {
	tk        *cluster.RemoteTicket
	job       engine.Job
	submitted time.Time
	latency   time.Duration
	res       *engine.Result
}

func (t *timedTicket) Wait(ctx context.Context) (*engine.Result, error) {
	if t.res != nil {
		return t.res, nil
	}
	res, err := t.tk.Wait(ctx)
	if err != nil {
		return nil, err
	}
	if res == nil || (res.Full == nil && res.Sampled == nil) {
		return nil, errors.New("fabric job returned no result")
	}
	t.latency = time.Since(t.submitted)
	t.res = res
	return res, nil
}

// countingTransport counts the client's HTTP requests and the 503 busy
// responses cluster.Client absorbs by retrying.
type countingTransport struct {
	base           *http.Transport
	requests, busy atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	resp, err := c.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusServiceUnavailable {
		c.busy.Add(1)
	}
	return resp, err
}

func (c *countingTransport) reset() {
	c.requests.Store(0)
	c.busy.Store(0)
}
