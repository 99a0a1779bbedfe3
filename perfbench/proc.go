package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// signalGrace is how long after launch a binary is left before SIGTERM.
const signalGrace = 100 * time.Millisecond

// children holds every process the benchmark has started and not yet
// reaped, so an interrupted run can end them all.
var children = struct {
	sync.Mutex
	procs map[*os.Process]bool
}{procs: map[*os.Process]bool{}}

func track(p *os.Process) {
	children.Lock()
	children.procs[p] = true
	children.Unlock()
}

func untrack(p *os.Process) {
	children.Lock()
	delete(children.procs, p)
	children.Unlock()
}

// killChildren kills every tracked process and waits, up to a few
// seconds, until their waiters have reaped them all.
func killChildren() {
	children.Lock()
	for p := range children.procs {
		_ = p.Kill() // one that already exited is being reaped
	}
	children.Unlock()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		children.Lock()
		n := len(children.procs)
		children.Unlock()
		if n == 0 {
			return
		}
	}
}

// runTracked runs cmd to completion as a tracked child.
func runTracked(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	track(cmd.Process)
	defer untrack(cmd.Process)
	return cmd.Wait()
}

// proc is one running binary under test.
type proc struct {
	name    string
	started time.Time
	cmd     *exec.Cmd
	stderr  *bytes.Buffer
	done    chan struct{}
	state   *os.ProcessState
}

// startProc launches bin with args; its stdout is discarded and its
// stderr kept for the exit stats lines.
func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	track(cmd.Process)
	p := &proc{name: filepath.Base(bin), started: time.Now(), cmd: cmd, stderr: &stderr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from state
		untrack(cmd.Process)
		p.state = cmd.ProcessState
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM and waits for the process to drain and exit,
// killing it after the budget. It returns the process's stderr.
func (p *proc) stop(budget time.Duration) (string, error) {
	// The binaries install their SIGTERM handler just after they start
	// serving; a process stopped right after its first answer could
	// still die of the signal's default action without its stats.
	if d := signalGrace - time.Since(p.started); d > 0 {
		time.Sleep(d)
	}
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled below
	}
	select {
	case <-p.done:
	case <-time.After(budget):
		_ = p.cmd.Process.Kill() // the wait below reports the outcome
		<-p.done
		return p.stderr.String(), fmt.Errorf("%s did not exit within %v of SIGTERM", p.name, budget)
	}
	if !p.state.Success() {
		return p.stderr.String(), fmt.Errorf("%s exited with %v: %s", p.name, p.state, lastLines(p.stderr.String(), 3))
	}
	return p.stderr.String(), nil
}

// kill ends the process without waiting for a drain; used on error
// paths so no child outlives the benchmark.
func (p *proc) kill() {
	if p == nil {
		return
	}
	if !p.exited() {
		_ = p.cmd.Process.Kill() // already-exited races are harmless
	}
	<-p.done
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// procSample is a point-in-time reading of one process from /proc.
type procSample struct {
	cpu     time.Duration // utime + stime
	rssKB   int64         // VmRSS
	hwmKB   int64         // VmHWM, the peak RSS
	threads int64
	fds     int64
}

func sampleProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return s, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, errors.New("bad cpu fields in /proc stat")
	}
	s.cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.Fields(v + " 0")[0], 10, 64) // absent fields read as 0
		switch k {
		case "VmRSS":
			s.rssKB = n
		case "VmHWM":
			s.hwmKB = n
		case "Threads":
			s.threads = n
		}
	}
	fds, err := os.ReadDir(fmt.Sprintf("/proc/%d/fd", pid))
	if err != nil {
		return s, err
	}
	s.fds = int64(len(fds))
	return s, nil
}

// maxSteal is the largest share of the machine's CPU time the
// hypervisor may take during a measurement window before the window is
// run again: above it the figures describe the neighbours.
const maxSteal = 0.10

// hostTicks is the machine-wide CPU time from /proc/stat, in USER_HZ
// ticks: all of it, and the part the hypervisor stole.
type hostTicks struct{ steal, total int64 }

func readHostTicks() hostTicks {
	var h hostTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h // no steal figure: every window counts as quiet
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest ...];
	// guest time is already part of user.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64) // a malformed field counts as 0
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealSince is the share of CPU time stolen since an earlier reading.
func (h hostTicks) stealSince(earlier hostTicks) float64 {
	if d := h.total - earlier.total; d > 0 {
		return float64(h.steal-earlier.steal) / float64(d)
	}
	return 0
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freePort returns a loopback port that is free for both UDP and TCP at
// the time of the call.
func freePort() (int, error) {
	for try := 0; try < 20; try++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := ln.Addr().(*net.TCPAddr).Port
		pc, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", port))
		ln.Close()
		if err != nil {
			continue
		}
		pc.Close()
		return port, nil
	}
	return 0, errors.New("no free loopback port")
}

// serverStats is the SIGTERM stats line dnsserver prints:
// received = answered + shed + slipped + malformed + panics.
type serverStats struct {
	received, answered, shed, slipped, malformed, panics int64
}

func (s serverStats) balanced() bool {
	return s.received == s.answered+s.shed+s.slipped+s.malformed+s.panics
}

var (
	serverLineRE = regexp.MustCompile(`received=(\d+) answered=(\d+) shed=(\d+) \(rrl-dropped=\d+\) slipped=(\d+) malformed=(\d+) panics=(\d+)`)
	cacheLineRE  = regexp.MustCompile(`cache lookups=(\d+) hits=(\d+) misses=(\d+) .*evictions=(\d+) expiries=(\d+) coalesced=(\d+) rejected=(\d+) live=(\d+) high=(\d+)`)
	servedLineRE = regexp.MustCompile(`served (\d+) client queries, sent (\d+) upstream`)
)

func atoi64(s string) int64 {
	n, _ := strconv.ParseInt(s, 10, 64) // the regexps only match digits
	return n
}

func parseServerStats(stderr string) (serverStats, error) {
	m := serverLineRE.FindStringSubmatch(stderr)
	if m == nil {
		return serverStats{}, errors.New("no server stats line on exit")
	}
	return serverStats{atoi64(m[1]), atoi64(m[2]), atoi64(m[3]), atoi64(m[4]), atoi64(m[5]), atoi64(m[6])}, nil
}

// cacheStats is recursor's exit cache line: lookups = hits + misses.
type cacheStats struct {
	lookups, hits, misses, evictions, live int64
}

func parseCacheStats(stderr string) (cacheStats, error) {
	m := cacheLineRE.FindStringSubmatch(stderr)
	if m == nil {
		return cacheStats{}, errors.New("no cache stats line on exit")
	}
	return cacheStats{lookups: atoi64(m[1]), hits: atoi64(m[2]), misses: atoi64(m[3]), evictions: atoi64(m[4]), live: atoi64(m[8])}, nil
}

func parseServed(stderr string) (client, upstream int64, err error) {
	m := servedLineRE.FindStringSubmatch(stderr)
	if m == nil {
		return 0, 0, errors.New("no served/sent line on exit")
	}
	return atoi64(m[1]), atoi64(m[2]), nil
}
