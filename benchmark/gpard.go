package main

import (
	"bytes"
	"encoding/json"
	"errors"
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

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU times.
// It is 100 on every Linux platform Go supports.
const clockTick = 100

// procs is every gpard process this run started and has not reaped yet, so
// that exit, panic and SIGINT can all kill what is left.
var procs struct {
	sync.Mutex
	live map[*gpard]struct{}
}

// killAll reaps every live gpard. Safe to call more than once.
func killAll() {
	procs.Lock()
	live := make([]*gpard, 0, len(procs.live))
	for p := range procs.live {
		live = append(live, p)
	}
	procs.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// buildGpard compiles cmd/gpard from the enclosing repository into dir, once
// per run. The benchmark module requires the root module through a replace
// directive, so the package path resolves to the checkout's own source.
func buildGpard(dir string) (string, error) {
	bin := filepath.Join(dir, "gpard")
	cmd := exec.Command("go", "build", "-o", bin, "gpar/cmd/gpard")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build gpar/cmd/gpard: %w\n%s", err, out.String())
	}
	return bin, nil
}

// gpard is one running daemon. It sees only files and flags.
type gpard struct {
	cmd    *exec.Cmd
	bin    string
	args   []string // without -addr
	addr   string
	logf   *os.File
	exited chan struct{}
	dead   sync.Once
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startGpard launches bin on a free loopback port with args and returns
// without waiting for it to serve; see waitHealthy.
func startGpard(bin, logPath string, args ...string) (*gpard, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	p := &gpard{bin: bin, args: args, addr: addr, logf: logf, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	// If this process dies without running its cleanup (SIGKILL), the kernel
	// takes the daemon down with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	procs.Lock()
	if procs.live == nil {
		procs.live = make(map[*gpard]struct{})
	}
	procs.live[p] = struct{}{}
	procs.Unlock()
	go func() {
		_ = p.cmd.Wait() // exit status is irrelevant: every exit here is a kill or a crash waitHealthy reports
		close(p.exited)
	}()
	return p, nil
}

func (p *gpard) url(path string) string { return "http://" + p.addr + path }

// health is the part of GET /healthz the benchmark reads.
type health struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
}

// waitHealthy polls /healthz until the daemon reports ok. It fails early if
// the process exits.
func (p *gpard) waitHealthy(hc *http.Client, timeout time.Duration) (health, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return health{}, fmt.Errorf("gpard exited during start-up; see %s", p.logf.Name())
		default:
		}
		var h health
		if code, err := getJSON(hc, p.url("/healthz"), &h); err == nil && code == http.StatusOK && h.Status == "ok" {
			return h, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return health{}, fmt.Errorf("gpard not healthy after %s; see %s", timeout, p.logf.Name())
}

// kill sends SIGKILL — the daemon gets no chance to flush or drain — and
// waits until the process has ended.
func (p *gpard) kill() {
	p.dead.Do(func() {
		_ = p.cmd.Process.Kill() // already-exited is fine
		<-p.exited
		p.logf.Close()
		procs.Lock()
		delete(procs.live, p)
		procs.Unlock()
	})
}

// restart kills the daemon and starts a fresh one with the same flags.
func (p *gpard) restart() (*gpard, error) {
	p.kill()
	return startGpard(p.bin, p.logf.Name(), p.args...)
}

// cpuSeconds is the daemon's user + system CPU time so far.
func (p *gpard) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14: utime
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15: stime
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB is the daemon's resident-set high-water mark (VmHWM).
func (p *gpard) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPUSeconds is this process's own user + system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// getJSON GETs url and decodes the body into v.
func getJSON(hc *http.Client, url string, v any) (int, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}
