package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"adawave/client"
	"adawave/internal/api"
	"adawave/internal/core"
	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// The serve workload: adawave-router → primary adawave-serve → follower
// adawave-serve, one shard, on loopback, driven by one typed client per
// session in a closed loop.
const (
	servePerCluster = 5000 // synth.Evaluation(5000, 0.5, ·) = 50k points per session
	serveDelta      = 500  // points appended and removed each round
	serveWALSync    = "always"
	serveCkpt       = 5 * time.Second
	serveSetupReps  = 5
	// maxServeClients caps the client count (one per processor) so a large
	// machine does not turn the workload into a different one.
	maxServeClients = 8
	// catchUpTimeout bounds the wait for the follower to apply everything the
	// primary acknowledged; a follower still behind after it is a failure.
	catchUpTimeout = 30 * time.Second
)

// serveInput is one client's data: its warm session rows, the delta it
// appends and removes every round, and the expected labels of both states.
type serveInput struct {
	warm, delta      [][]float64
	removeIdx        []int
	warmLabels, want []int
	warmDS, deltaDS  *pointset.Dataset
}

// makeServeInputs builds every client's inputs from the seed and computes the
// expected labels with the one-shot engine (a session must equal it).
func makeServeInputs(seed int64, clients, workers int) ([]serveInput, error) {
	eng, err := core.NewEngine(core.DefaultConfig(), workers)
	if err != nil {
		return nil, err
	}
	ins := make([]serveInput, clients)
	for c := range ins {
		warm := synth.Evaluation(servePerCluster, 0.5, seed+int64(c)).Points
		mins, maxs := bbox(warm)
		// Fresh points drawn from the same distribution, kept only when they
		// lie strictly inside the warm bounding box, so a round never changes
		// the session's quantization frame.
		extra := synth.Evaluation(servePerCluster, 0.5, seed+int64(c)+7919)
		extra.Shuffle(seed + int64(c))
		var delta [][]float64
		for _, p := range extra.Points {
			if inside(p, mins, maxs) {
				delta = append(delta, p)
				if len(delta) == serveDelta {
					break
				}
			}
		}
		if len(delta) < serveDelta {
			return nil, fmt.Errorf("only %d delta points inside the warm box", len(delta))
		}
		in := serveInput{warm: warm, delta: delta}
		for i := range delta {
			in.removeIdx = append(in.removeIdx, len(warm)+i)
		}
		in.warmDS = pointset.MustFromSlices(warm)
		in.deltaDS = pointset.MustFromSlices(delta)
		warmRes, err := eng.ClusterDataset(in.warmDS)
		if err != nil {
			return nil, err
		}
		all := append(append([][]float64(nil), warm...), delta...)
		roundRes, err := eng.ClusterDataset(pointset.MustFromSlices(all))
		if err != nil {
			return nil, err
		}
		in.warmLabels, in.want = warmRes.Labels, roundRes.Labels
		ins[c] = in
	}
	return ins, nil
}

func bbox(pts [][]float64) (mins, maxs []float64) {
	mins = append([]float64(nil), pts[0]...)
	maxs = append([]float64(nil), pts[0]...)
	for _, p := range pts[1:] {
		for j, v := range p {
			mins[j], maxs[j] = min(mins[j], v), max(maxs[j], v)
		}
	}
	return mins, maxs
}

func inside(p, mins, maxs []float64) bool {
	for j, v := range p {
		if !(v > mins[j] && v < maxs[j]) {
			return false
		}
	}
	return true
}

func runServe(r *run) error {
	if r.bin == "" {
		return errors.New("serve needs -bin, the directory holding adawave-serve and adawave-router")
	}
	clients := min(max(r.workers, 1), maxServeClients)
	ins, err := makeServeInputs(r.seed, clients, r.workers)
	if err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	r.note("serve: %d clients (one session of %d points each, delta %d), wal-sync=%s, checkpoint-interval=%s, node workers=%d; peak_rss_mib is the primary's VmHWM",
		clients, len(ins[0].warm), serveDelta, serveWALSync, serveCkpt, r.workers)

	var setups []setupTime
	var cl *cluster
	for i := 0; i < serveSetupReps; i++ {
		if cl != nil {
			cl.stop()
		}
		var d setupTime
		cl, d, err = r.startCluster(ins, i)
		if err != nil {
			if cl != nil {
				cl.stop()
			}
			return fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, d)
	}
	defer cl.stop()
	r.note("setup: median of %d (start 3 processes, create and seed %d sessions, follower caught up, warm labels read)", len(setups), clients)

	untraced := r.serveLoop(cl, ins, nil)
	r.setE2EFrom(setups, untraced.loopStats)
	r.alias("rounds_per_s", "ops_per_s")
	r.note("rounds_per_s is ops_per_s; a point is a label returned (%d per round); cpu_ms_per_op is the benchmark process and the three nodes together", len(ins[0].want))
	// Printed on every run; part of the result line only when traced.
	r.setServeSteps(untraced)

	if r.traced {
		obs := &serveObserver{}
		traced := r.serveLoop(cl, ins, obs)
		r.setOverhead(untraced.loopStats, traced.loopStats)
		hop := r.proxyHop(cl)
		if err := r.replayLayers(ins[0], untraced.labels.p50); err != nil {
			return err
		}
		r.setNodeLayers(obs, traced, hop)
	}

	r.checkFollower(cl, catchUpTimeout)
	return nil
}

// proc is one child process with its log file.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
	log  *os.File
}

func startProc(bin, logPath, addr string, args ...string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, url: "http://" + addr, done: make(chan struct{}), log: lf}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server is not a result
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to shut down, kills it if it has not exited after a
// grace period, and returns once it has exited.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// freeAddr reserves a loopback port and releases it for the process about
// to bind it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// cluster is one running router → primary → follower shard.
type cluster struct {
	primary, follower, router *proc
	dir                       string
	ids                       []string
	// probe is a plain keep-alive client for status reads and probes.
	probe *http.Client
}

// meter reads the CPU time of the benchmark process and the three nodes.
func (c *cluster) meter() cpuMeter {
	return cpuMeter{0, c.primary.cmd.Process.Pid, c.follower.cmd.Process.Pid, c.router.cmd.Process.Pid}
}

func (c *cluster) stop() {
	c.router.stop()
	c.follower.stop()
	c.primary.stop()
	os.RemoveAll(c.dir)
}

// startCluster starts the shard, creates and seeds one session per client
// through the router, starts the follower and waits until it has applied
// everything, then reads each session's warm labels once. It returns the
// time from the first process start to the last warm read, and the CPU time
// the benchmark process and the three nodes spent in it.
func (r *run) startCluster(ins []serveInput, rep int) (*cluster, setupTime, error) {
	c := &cluster{
		dir:   filepath.Join(r.work, fmt.Sprintf("serve-%d-%d", os.Getpid(), rep)),
		probe: &http.Client{Timeout: 30 * time.Second},
	}
	if err := os.RemoveAll(c.dir); err != nil {
		return nil, setupTime{}, err
	}
	for _, d := range []string{"primary", "follower", "logs"} {
		if err := os.MkdirAll(filepath.Join(c.dir, d), 0o755); err != nil {
			return nil, setupTime{}, err
		}
	}
	var addrs [3]string
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, setupTime{}, err
		}
		addrs[i] = a
	}
	serveBin := filepath.Join(r.bin, "adawave-serve")
	workers := strconv.Itoa(r.workers)
	logf := func(n string) string { return filepath.Join(c.dir, "logs", n+".log") }
	primaryURL, followerURL := "http://"+addrs[0], "http://"+addrs[1]

	start := time.Now()
	cpu0, err := procCPU(0)
	if err != nil {
		return nil, setupTime{}, err
	}
	if c.primary, err = startProc(serveBin, logf("primary"), addrs[0],
		"-role", "primary", "-data-dir", filepath.Join(c.dir, "primary"),
		"-wal-sync", serveWALSync, "-checkpoint-interval", serveCkpt.String(), "-workers", workers); err != nil {
		return c, setupTime{}, err
	}
	if c.router, err = startProc(filepath.Join(r.bin, "adawave-router"), logf("router"), addrs[2],
		"-peers", primaryURL+"="+followerURL); err != nil {
		return c, setupTime{}, err
	}
	for _, p := range []*proc{c.primary, c.router} {
		if err := c.waitHealthy(p); err != nil {
			return c, setupTime{}, err
		}
	}
	ctx := context.Background()
	rc := client.New(c.router.url, client.WithHTTPClient(c.probe))
	for _, in := range ins {
		id, err := rc.CreateSession(ctx, nil)
		if err != nil {
			return c, setupTime{}, fmt.Errorf("create session: %w", err)
		}
		if _, err := rc.Append(ctx, id, in.warm); err != nil {
			return c, setupTime{}, fmt.Errorf("seed session: %w", err)
		}
		c.ids = append(c.ids, id)
	}
	// The follower starts after seeding, so its first discovery poll (it
	// polls once a second) already lists every session and the set-up time
	// does not depend on where that poll's phase happened to fall.
	if c.follower, err = startProc(serveBin, logf("follower"), addrs[1],
		"-role", "follower", "-follower-of", primaryURL,
		"-data-dir", filepath.Join(c.dir, "follower"), "-workers", workers); err != nil {
		return c, setupTime{}, err
	}
	if err := c.waitHealthy(c.follower); err != nil {
		return c, setupTime{}, err
	}
	if err := c.waitCaughtUp(catchUpTimeout); err != nil {
		return c, setupTime{}, err
	}
	for i, in := range ins {
		res, err := rc.Labels(ctx, c.ids[i])
		if err != nil {
			return c, setupTime{}, fmt.Errorf("warm labels: %w", err)
		}
		if j := firstMismatch(res.Labels, in.warmLabels); j >= 0 {
			return c, setupTime{}, fmt.Errorf("warm labels of session %d differ from the one-shot labels at %d", i, j)
		}
	}
	wall := time.Since(start)
	cpu, err := c.meter().read()
	if err != nil {
		return c, setupTime{}, err
	}
	cpu[0] -= cpu0
	st := setupTime{wall: wall}
	for _, d := range cpu {
		st.cpu += d
	}
	return c, st, nil
}

func (c *cluster) waitHealthy(p *proc) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			out, _ := os.ReadFile(p.log.Name()) // best effort: the exit is the error
			return fmt.Errorf("%s exited during start-up:\n%s", p.url, out)
		default:
		}
		resp, err := c.probe.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy", p.url)
}

// replicationStatus reads a node's GET /v1/replication/status.
func (c *cluster) replicationStatus(base string) (*api.ReplicationStatusResponse, error) {
	var st api.ReplicationStatusResponse
	return &st, c.getJSON(base+"/v1/replication/status", &st)
}

func (c *cluster) getJSON(url string, out any) error {
	resp, err := c.probe.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// lag returns, per session, how many WAL records the follower has not yet
// applied (primary WAL position minus follower applied position), and the
// follower's applied positions.
func (c *cluster) lag() (lag map[string]uint64, applied map[string]uint64, err error) {
	ps, err := c.replicationStatus(c.primary.url)
	if err != nil {
		return nil, nil, fmt.Errorf("primary status: %w", err)
	}
	fs, err := c.replicationStatus(c.follower.url)
	if err != nil {
		return nil, nil, fmt.Errorf("follower status: %w", err)
	}
	lag, applied = map[string]uint64{}, map[string]uint64{}
	for _, id := range c.ids {
		p, ok := ps.Sessions[id]
		if !ok {
			return nil, nil, fmt.Errorf("primary does not list session %s", id)
		}
		f := fs.Sessions[id] // absent = nothing applied yet
		applied[id] = f.AppliedSeq
		if p.AppliedSeq > f.AppliedSeq {
			lag[id] = p.AppliedSeq - f.AppliedSeq
		} else {
			lag[id] = 0
		}
	}
	return lag, applied, nil
}

// waitCaughtUp waits until the follower's appliedSeq equals the primary's
// WAL position on every session.
func (c *cluster) waitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		lag, _, err := c.lag()
		behind := 0
		for _, l := range lag {
			behind += int(l)
		}
		if err == nil && behind == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("still %d records behind the primary after %s", behind, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkFollower is the end-of-run replication check: a follower that has not
// applied everything the primary acknowledged within timeout is a failure.
func (r *run) checkFollower(c *cluster, timeout time.Duration) {
	r.attempted++
	if err := c.waitCaughtUp(timeout); err != nil {
		r.fail("follower: %v", err)
		return
	}
	r.note("follower appliedSeq equals the primary's on every session")
}

// stepStats is what the closed loop measured, per step and per round.
type stepStats struct {
	loopStats
	append, labels, ndjson, remove latencies
}

// clientTally is one client goroutine's private record.
type clientTally struct {
	attempted, failed int64
	failures          []string
	rounds            int
	round, app, lab   []time.Duration
	nd, rem           []time.Duration
	stopped           bool
}

func (t *clientTally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < maxFailureNotes {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// serveLoop runs every client for r.seconds against the router. With obs
// set the loop is traced: each round is a root span with one child per HTTP
// step, and obs samples the nodes' metrics and replication status.
func (r *run) serveLoop(c *cluster, ins []serveInput, obs *serveObserver) stepStats {
	if obs != nil {
		obs.start(c, r.tr)
	}
	tallies := make([]clientTally, len(ins))
	var wg sync.WaitGroup
	meter := c.meter()
	c0, cpuErr := meter.read()
	start := time.Now()
	deadline := start.Add(r.seconds)
	for i := range ins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			cl := client.New(c.router.url, client.WithHTTPClient(hc))
			var tr *tracer
			if obs != nil {
				tr = r.tr
			}
			runClient(cl, c.ids[i], &ins[i], deadline, tr, &tallies[i])
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	c1, err := meter.read()
	if obs != nil {
		obs.stop()
	}

	var s stepStats
	var round, app, lab, nd, rem []time.Duration
	rounds := 0
	for _, t := range tallies {
		r.attempted += t.attempted
		r.failed += t.failed
		if t.failed > 0 {
			r.correct = false
		}
		for _, f := range t.failures {
			r.note("FAILED: %s", f)
		}
		rounds += t.rounds
		round, app, lab = append(round, t.round...), append(app, t.app...), append(lab, t.lab...)
		nd, rem = append(nd, t.nd...), append(rem, t.rem...)
	}
	s.op = summarize(round)
	s.append, s.labels, s.ndjson, s.remove = summarize(app), summarize(lab), summarize(nd), summarize(rem)
	s.opsPerS = float64(rounds) / wall.Seconds()
	s.pointsPerOp = float64(len(ins[0].want))
	s.pointsPerS = s.opsPerS * s.pointsPerOp
	if err = errors.Join(cpuErr, err); err != nil {
		r.attempted++
		r.fail("%v", err)
	} else {
		s.setCPU(c0, c1, rounds)
	}
	if s.rssMiB, err = vmHWM(strconv.Itoa(c.primary.cmd.Process.Pid)); err != nil {
		r.attempted++
		r.fail("primary VmHWM: %v", err)
	}
	return s
}

// runClient is one closed-loop client: append the delta, read the labels
// (JSON on even rounds, NDJSON on odd ones), remove the delta — every round
// ends in the warm state, so every labels response must equal in.want. A
// step's latency counts only when the step succeeded and its output checked
// out; checks run outside the timed call.
func runClient(cl *client.Client, id string, in *serveInput, deadline time.Time, tr *tracer, t *clientTally) {
	ctx := context.Background()
	got := make([]int, len(in.want))
	for round := int64(0); time.Now().Before(deadline) && !t.stopped; round++ {
		root := -1
		if tr != nil {
			root = tr.begin("op", -1, round)
		}
		if sum, ok := clientRound(ctx, cl, id, in, round, got, tr, root, t); ok {
			t.rounds++
			t.round = append(t.round, sum)
		}
		if tr != nil {
			tr.end(root)
		}
	}
}

// clientRound runs one round and reports its summed step latency and
// whether every step succeeded with a correct output.
func clientRound(ctx context.Context, cl *client.Client, id string, in *serveInput, round int64, got []int, tr *tracer, root int, t *clientTally) (time.Duration, bool) {
	step := func(name string, f func() error) (time.Duration, error) {
		t.attempted++
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		if tr != nil {
			tr.add(name, t0, d, root, round)
		}
		return d, err
	}

	var ar *api.AppendResponse
	dApp, err := step("http.append", func() (err error) {
		ar, err = cl.Append(ctx, id, in.delta)
		return err
	})
	if err == nil && (ar.Appended != len(in.delta) || ar.Points != len(in.want)) {
		err = fmt.Errorf("appended %d → %d points, want %d → %d", ar.Appended, ar.Points, len(in.delta), len(in.want))
	}
	if err != nil {
		t.fail("append round %d: %v", round, err)
		t.stopped = !recoverWarm(ctx, cl, id, in)
		return 0, false
	}
	ok := true

	ndjson := round%2 == 1
	name := "http.labels"
	var labels []int
	var dLab time.Duration
	if ndjson {
		name = "http.labels_ndjson"
		for i := range got {
			got[i] = -2 // no label has this value, so a missing chunk shows
		}
		dLab, err = step(name, func() error {
			_, err := cl.LabelsStream(ctx, id, func(off int, chunk []int) error {
				if off < 0 || off+len(chunk) > len(got) {
					return fmt.Errorf("chunk [%d,+%d) outside %d labels", off, len(chunk), len(got))
				}
				copy(got[off:], chunk)
				return nil
			})
			return err
		})
		labels = got
	} else {
		dLab, err = step(name, func() error {
			res, err := cl.Labels(ctx, id)
			if err == nil {
				labels = res.Labels
			}
			return err
		})
	}
	if err == nil {
		if i := firstMismatch(labels, in.want); i >= 0 {
			err = fmt.Errorf("labels differ from the one-shot labels at %d", i)
		}
	}
	switch {
	case err != nil:
		t.fail("%s round %d: %v", name, round, err)
		ok = false
	case ndjson:
		t.nd = append(t.nd, dLab)
	default:
		t.lab = append(t.lab, dLab)
	}

	var rr *api.RemoveResponse
	dRem, err := step("http.remove", func() (err error) {
		rr, err = cl.Remove(ctx, id, in.removeIdx)
		return err
	})
	if err == nil && (rr.Removed != len(in.delta) || rr.Points != len(in.warm)) {
		err = fmt.Errorf("removed %d → %d points, want %d → %d", rr.Removed, rr.Points, len(in.delta), len(in.warm))
	}
	if err != nil {
		t.fail("remove round %d: %v", round, err)
		t.stopped = !recoverWarm(ctx, cl, id, in)
		return 0, false
	}
	t.app = append(t.app, dApp)
	t.rem = append(t.rem, dRem)
	return dApp + dLab + dRem, ok
}

// recoverWarm brings a session back to its warm point count after a failed
// step; false means the client cannot continue.
func recoverWarm(ctx context.Context, cl *client.Client, id string, in *serveInput) bool {
	d, err := cl.Session(ctx, id)
	if err != nil {
		return false
	}
	if d.Points == len(in.want) {
		if _, err := cl.Remove(ctx, id, in.removeIdx); err != nil {
			return false
		}
		return true
	}
	return d.Points == len(in.warm)
}
