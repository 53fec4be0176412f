package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark writes outside its own
// directory goes: the built server binaries and the per-run scratch
// directory.  It sits in the checkout (never under $TMPDIR) and is listed
// in .gitignore.
const buildDir = ".bench_build"

// harness owns the child processes and the scratch directory of one
// benchmark process.
type harness struct {
	root   string // repository root: the directory holding cmd/everest
	binDir string
	runDir string
	config string // services.json all servers are deployed from
	buildS float64
	seq    int // deployments launched so far; names their directories and logs

	mu       sync.Mutex
	children []*child
	cleaned  bool
}

// child is one running server process.
type child struct {
	name string
	url  string // the process's own listen URL (readiness, /metrics)
	bin  string
	args []string
	log  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "everest", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/everest above the working directory: run from the repository")
		}
		dir = parent
	}
}

// newHarness builds the shipped server binaries from source and creates the
// scratch directory of this run.
func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{
		root:   root,
		binDir: filepath.Join(root, buildDir, "bin"),
		runDir: filepath.Join(root, buildDir, fmt.Sprintf("run-%d", os.Getpid())),
	}
	if err := os.MkdirAll(h.binDir, 0o755); err != nil {
		return nil, err
	}
	h.removeStaleRuns()
	if err := os.MkdirAll(h.runDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	build := exec.Command("go", "build", "-o", h.binDir+string(filepath.Separator), "./cmd/everest", "./cmd/mcgw")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		h.cleanup()
		return nil, fmt.Errorf("go build ./cmd/everest ./cmd/mcgw: %v\n%s", err, out)
	}
	h.buildS = time.Since(start).Seconds()
	h.config = filepath.Join(h.runDir, "services.json")
	if err := os.WriteFile(h.config, []byte(servicesJSON), 0o644); err != nil {
		h.cleanup()
		return nil, err
	}
	return h, nil
}

// removeStaleRuns deletes scratch directories left by runs that died
// without cleaning up (a crash in a goroutine, SIGKILL): run-<pid> whose
// process no longer exists.
func (h *harness) removeStaleRuns() {
	entries, err := os.ReadDir(filepath.Join(h.root, buildDir))
	if err != nil {
		return
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "run-"))
		if err != nil || !strings.HasPrefix(e.Name(), "run-") {
			continue
		}
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); os.IsNotExist(err) {
			_ = os.RemoveAll(filepath.Join(h.root, buildDir, e.Name()))
		}
	}
}

// freeAddrs asks the kernel for n unused loopback ports.  The servers take
// -addr but do not report a port bound through ":0", so the ports are chosen
// here, released, and handed to the children.  All n are held until the last
// is chosen, so that the kernel cannot hand out the same port twice.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// start launches one server binary in its own process group, with its
// output in a log file under the run directory.  The child is killed by the
// kernel if this process dies without cleaning up.
func (h *harness) start(name, url, bin string, args ...string) (*child, error) {
	c := &child{
		name: name, url: url, bin: bin, args: args,
		log:  filepath.Join(h.runDir, name+".log"),
		done: make(chan struct{}),
	}
	logf, err := os.OpenFile(c.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	c.cmd = exec.Command(filepath.Join(h.binDir, bin), args...)
	c.cmd.Stdout = logf
	c.cmd.Stderr = logf
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cleaned {
		return nil, fmt.Errorf("harness is shut down")
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = c.cmd.Wait() // a killed server always reports an error
		close(c.done)
	}()
	h.children = append(h.children, c)
	return c, nil
}

// kill terminates the child's whole process group (the command adapter's
// cp runs in it) and waits until the child has been reaped.
func (c *child) kill() {
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // ESRCH when already gone
	<-c.done
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// logTail returns the last lines of the child's log, for readiness
// failures.
func (c *child) logTail() string {
	data, err := os.ReadFile(c.log)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// waitReady polls ready (every half millisecond, so that setup_s is not quantised) until it reports true, the child
// exits, or the timeout passes.
func (c *child) waitReady(ctx context.Context, ready func(context.Context) bool) error {
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		if ready(ctx) {
			return nil
		}
		select {
		case <-c.done:
			return fmt.Errorf("%s exited before it was ready; log tail:\n%s", c.name, c.logTail())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %v; log tail:\n%s", c.name, ctx.Err(), c.logTail())
		case <-tick.C:
		}
	}
}

// indexAnswers reports whether GET url/ answers 200.
func indexAnswers(ctx context.Context, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/", nil)
	if err != nil {
		return false
	}
	req.Header.Set("Accept", "application/json")
	resp, err := controlHTTP.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// cleanup kills every child and removes the run directory.  It is safe to
// call more than once and from the signal handler.
func (h *harness) cleanup() {
	h.mu.Lock()
	h.cleaned = true
	children := h.children
	h.children = nil
	h.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	_ = os.RemoveAll(h.runDir)
}

// forget drops a stopped child from the cleanup list.
func (h *harness) forget(c *child) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, other := range h.children {
		if other == c {
			h.children = append(h.children[:i], h.children[i+1:]...)
			return
		}
	}
}
