package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cosmodel/internal/calib"
	"cosmodel/internal/cluster"
	"cosmodel/internal/core"
	"cosmodel/internal/serve"
)

// deployment is one running server configuration: a single cosserve, or a
// cosrouter over three shard-mode cosserves.
type deployment struct {
	// target is the base URL every stream is sent to (the router in a
	// cluster: it dual-writes ingest and fans out predictions).
	target string
	// pids are the server processes whose CPU and memory are accounted;
	// empty for an in-process deployment.
	pids []int
	// servers and router are the in-process handles (nil for processes):
	// the single server or the shards, then the router; serverURLs are the
	// servers' base URLs.
	servers    []*serve.Server
	serverURLs []string
	router     *cluster.Router
	stop       func()
}

const clusterShards = 3

// serveConfig mirrors cosserve's flag defaults for the workload, so that an
// in-process engine answers exactly like the binary.
func serveConfig(w *workload, shard bool) serve.Config {
	cfg := serve.DefaultConfig(serverProps(), w.devices)
	cfg.Opts.EvalTimeout = 10 * time.Second
	cfg.ShardMode = shard
	if w.calib {
		cc := calib.DefaultConfig(w.devices)
		cfg.Calib = &cc
	}
	cfg.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	return cfg
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// child is one launched server process.
type child struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
}

// processes launches server binaries from binDir with GOMAXPROCS pinned to
// procs, and stops them all.
type processes struct {
	binDir string
	procs  int
	kids   []*child
}

// launch starts one binary listening on a free loopback port (addrFlag
// names its listen-address flag) and waits until it answers /healthz.
func (ps *processes) launch(bin, addrFlag string, args ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(ps.binDir, bin), append([]string{addrFlag, addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(ps.procs))
	cmd.Stderr = os.Stderr
	// A harness killed outright must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	k := &child{cmd: cmd, url: "http://" + addr, exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // an early exit is reported by waitReady
		close(k.exited)
	}()
	ps.kids = append(ps.kids, k)
	return k, waitReady(k.url, k.exited)
}

func (ps *processes) stop() {
	for _, k := range ps.kids {
		k.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // exit is awaited below
	}
	for _, k := range ps.kids {
		select {
		case <-k.exited:
		case <-time.After(5 * time.Second):
			k.cmd.Process.Kill() //nolint:errcheck // exit is awaited below
			<-k.exited
		}
	}
}

func (ps *processes) deployment(target string) *deployment {
	d := &deployment{target: target, stop: ps.stop}
	for _, k := range ps.kids {
		d.pids = append(d.pids, k.cmd.Process.Pid)
	}
	return d
}

// startProcesses launches the workload's servers from binDir with
// GOMAXPROCS pinned to procs and waits until each answers /healthz.
func startProcesses(w *workload, binDir string, procs int) (*deployment, error) {
	ps := &processes{binDir: binDir, procs: procs}
	cosserve := func(args ...string) (*child, error) {
		return ps.launch("cosserve", "-addr", append([]string{"-shutdown-grace", "1s", "-devices", strconv.Itoa(w.devices)}, args...)...)
	}
	if !w.cluster {
		var args []string
		if w.calib {
			args = append(args, "-calib")
		}
		k, err := cosserve(args...)
		if err != nil {
			ps.stop()
			return nil, err
		}
		return ps.deployment(k.url), nil
	}
	var nodes []string
	for i := 0; i < clusterShards; i++ {
		k, err := cosserve("-shard")
		if err != nil {
			ps.stop()
			return nil, err
		}
		nodes = append(nodes, k.url)
	}
	k, err := ps.launch("cosrouter", "-addr", "-shutdown-grace", "1s",
		"-nodes", strings.Join(nodes, ","), "-devices", strconv.Itoa(w.devices))
	if err != nil {
		ps.stop()
		return nil, err
	}
	return ps.deployment(k.url), nil
}

// startNullProcess launches the null server: this benchmark's own binary
// in its -null-server mode, pinned like the servers under test.
func startNullProcess(binDir string, procs int) (*deployment, error) {
	ps := &processes{binDir: binDir, procs: procs}
	k, err := ps.launch("bench", "-null-server")
	if err != nil {
		ps.stop()
		return nil, err
	}
	return ps.deployment(k.url), nil
}

// waitReady polls /healthz until the server answers, it exits, or 10 s pass.
func waitReady(url string, exited <-chan struct{}) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return fmt.Errorf("server %s exited before becoming ready", url)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %s not ready after 10s: %v", url, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// serveLoopback serves h from this process on a free loopback port; stop
// shuts it down and waits until it has.
func serveLoopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			hs.Close() //nolint:errcheck // forced close after a stuck drain
		}
		<-done
	}, nil
}

// startInProcess builds the workload's servers inside this process, each on
// its own loopback listener. wrap (may be nil) decorates every handler with
// its role ("serve", "shard" or "router"); observer (may be nil) receives
// every core evaluation span.
func startInProcess(w *workload, wrap func(role string, h http.Handler) http.Handler, observer func(core.EvalEvent)) (*deployment, error) {
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	var closers []func()
	d := &deployment{}
	d.stop = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	listen := func(h http.Handler) (string, error) {
		url, stop, err := serveLoopback(h)
		if err == nil {
			closers = append(closers, stop)
		}
		return url, err
	}
	newServer := func(shard bool) (string, error) {
		cfg := serveConfig(w, shard)
		cfg.Opts.Observer = observer
		s, err := serve.NewServer(cfg)
		if err != nil {
			return "", err
		}
		closers = append(closers, s.Close)
		d.servers = append(d.servers, s)
		role := "serve"
		if shard {
			role = "shard"
		}
		url, err := listen(wrap(role, s.Handler()))
		d.serverURLs = append(d.serverURLs, url)
		return url, err
	}
	if !w.cluster {
		url, err := newServer(false)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.target = url
		return d, nil
	}
	var nodes []string
	for i := 0; i < clusterShards; i++ {
		url, err := newServer(true)
		if err != nil {
			d.stop()
			return nil, err
		}
		nodes = append(nodes, url)
	}
	rt, err := cluster.NewRouter(cluster.DefaultConfig(nodes, w.devices))
	if err != nil {
		d.stop()
		return nil, err
	}
	rt.Start()
	closers = append(closers, rt.Close)
	d.router = rt
	if d.target, err = listen(wrap("router", rt.Handler())); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// procTimes returns a process's user+system CPU time from /proc/<pid>/stat.
func procTimes(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clkTck = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return time.Duration(utime+stime) * time.Second / clkTck, nil
}

// cpuTime sums procTimes over pids; with no pids it reads this process.
func cpuTime(pids []int) (time.Duration, error) {
	if len(pids) == 0 {
		return procTimes(os.Getpid())
	}
	var total time.Duration
	for _, pid := range pids {
		t, err := procTimes(pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// peakRSS sums VmHWM (peak resident set) over pids, in MiB; with no pids it
// reads this process.
func peakRSS(pids []int) (float64, error) {
	if len(pids) == 0 {
		pids = []int{os.Getpid()}
	}
	total := 0.0
	for _, pid := range pids {
		b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err != nil {
					return 0, err
				}
				total += kb / 1024
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", pid)
		}
	}
	return total, nil
}

func nproc() int { return runtime.NumCPU() }
