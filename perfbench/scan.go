package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	scanZone = "scan.example.org"
	// scanTargets is the size of one generated target list, every entry
	// pointing at authdns: one sweep is scanTargets probes.
	scanTargets = 100000
	// minSweeps keeps the sweep-time percentiles meaningful on short
	// runs.
	minSweeps = 3
	// authSetups is how many times the scan and replay workloads launch
	// their process for setup_s; a launch costs milliseconds.
	authSetups = 25
)

// startAuth launches authdns for the scan workload and waits until it
// answers.
func startAuth(e env) (*proc, *net.UDPAddr, int64, error) {
	port, err := freePort()
	if err != nil {
		return nil, nil, 0, err
	}
	p, err := startProc(e.binary("authdns"), "-listen", fmt.Sprintf("127.0.0.1:%d", port),
		"-zone", scanZone, "-scope", "source-4", "-quiet")
	if err != nil {
		return nil, nil, 0, err
	}
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}
	sent, err := waitAnswer(addr, scanZone, p)
	if err != nil {
		p.kill()
		return nil, nil, 0, err
	}
	return p, addr, sent, nil
}

// scanProbeName is the -name base of a sweep: a seed-derived label, so
// each seed probes its own unique names bulk<i>.<base>.
func scanProbeName(seed int64) string {
	return "s" + strconv.FormatInt(seed, 36) + "." + scanZone
}

// sweep is one ecsscan -targets run.
type sweep struct {
	wall    time.Duration
	cpu     time.Duration // ecsscan's, plus authdns's when the caller adds it
	maxRSS  int64         // KB
	good    int64         // target lines with a valid answer
	udpSent int64
	steal   float64 // share of CPU time the hypervisor took meanwhile
}

var (
	scanLineRE    = regexp.MustCompile(`^\S+\s+rcode=NOERROR answers=1 edns=true rtt=\S+$`)
	scanSummaryRE = regexp.MustCompile(`(\d+) targets: (\d+) responding, (\d+) unreachable in \S+ \(\d+ q/s; (\d+) udp sent, (\d+) retries, (\d+) tcp fallbacks\)`)
)

// runSweep runs one sweep and checks its output the way ecsscan
// reports it: one line per target, each NOERROR with one answer and an
// OPT record (the pipeline has already matched ID and question), and a
// summary with every target responding.
func runSweep(e env, targetsFile, name string) (sweep, error) {
	var sw sweep
	cmd := exec.Command(e.binary("ecsscan"), "-targets", targetsFile, "-name", name)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := runTracked(cmd)
	sw.wall = time.Since(t0)
	if err != nil {
		return sw, fmt.Errorf("ecsscan: %v: %s", err, lastLines(stderr.String(), 3))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		sw.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		sw.maxRSS = ru.Maxrss
	}
	sc := bufio.NewScanner(&stdout)
	summary := false
	for sc.Scan() {
		line := sc.Text()
		if scanLineRE.MatchString(line) {
			sw.good++
			continue
		}
		if m := scanSummaryRE.FindStringSubmatch(line); m != nil {
			summary = true
			if atoi64(m[1]) != scanTargets || atoi64(m[2]) != sw.good || atoi64(m[3]) != 0 {
				return sw, fmt.Errorf("ecsscan summary disagrees with its lines: %q (%d good lines)", line, sw.good)
			}
			sw.udpSent = atoi64(m[4])
			if sw.udpSent != scanTargets+atoi64(m[5]) || atoi64(m[6]) != 0 {
				return sw, fmt.Errorf("pipeline accounting: %q", line)
			}
		}
	}
	if !summary {
		return sw, fmt.Errorf("ecsscan printed no summary: %s", lastLines(stdout.String(), 2))
	}
	return sw, nil
}

func scan(e env) (*run, error) {
	r := newRun()
	var (
		times []float64
		auth  *proc
		addr  *net.UDPAddr
		ready int64
	)
	defer func() { auth.kill() }()
	for k := 0; k < authSetups; k++ {
		t0 := time.Now()
		p, a, n, err := startAuth(e)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if k < authSetups-1 {
			if _, err := p.stop(15 * time.Second); err != nil {
				return nil, err
			}
			continue
		}
		auth, addr, ready = p, a, n
	}
	r.set("setup_s", "s", median(times))

	targets := filepath.Join(e.work, fmt.Sprintf("targets-%d.txt", os.Getpid()))
	line := addr.String() + "\n"
	if err := os.WriteFile(targets, []byte(strings.Repeat(line, scanTargets)), 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(targets)

	afterSetup, err := sampleProc(auth.pid())
	if err != nil {
		return nil, err
	}
	name := scanProbeName(e.seed)
	var (
		sweeps      []sweep
		last, quiet time.Duration
		maxRSS      int64
		udpSent     int64
		good        int64
		start       = time.Now()
	)
	// Sweep while another sweep fits in the run's time. As with the serve
	// windows, a sweep during which the hypervisor stole more than
	// maxSteal of the CPUs is kept for the checks but run again, for up to
	// half as long again as the run.
	for len(sweeps) < minSweeps || (quiet+last <= e.seconds && time.Since(start)+last <= e.seconds*3/2) {
		probeHost(1)
		h0 := readHostTicks()
		before, err := sampleProc(auth.pid())
		if err != nil {
			return nil, err
		}
		sw, err := runSweep(e, targets, name)
		if err != nil {
			r.fail("sweep %d: %v", len(sweeps), err)
		}
		after, err := sampleProc(auth.pid())
		if err != nil {
			return nil, err
		}
		sw.cpu += after.cpu - before.cpu
		sw.steal = readHostTicks().stealSince(h0)
		if sw.maxRSS > maxRSS {
			maxRSS = sw.maxRSS
		}
		sweeps = append(sweeps, sw)
		last = sw.wall
		if sw.steal <= maxSteal {
			quiet += sw.wall
		}
		udpSent += sw.udpSent
		good += sw.good
		r.res.Attempted += scanTargets
		r.res.Failed += scanTargets - sw.good
	}
	end, err := sampleProc(auth.pid())
	if err != nil {
		return nil, err
	}
	use := sweeps[:0:0]
	for _, sw := range sweeps {
		if sw.steal <= maxSteal {
			use = append(use, sw)
		}
	}
	if len(use) == 0 {
		use = sweeps
	}
	var qps, walls []float64
	var cpu time.Duration
	for _, sw := range use {
		qps = append(qps, float64(scanTargets)/sw.wall.Seconds())
		walls = append(walls, sw.wall.Seconds())
		cpu += sw.cpu
	}
	r.set("qps", "1/s", median(qps))
	r.set("cpu_us_per_q", "us", float64(cpu)/float64(time.Microsecond)/float64(len(use)*scanTargets))
	r.set("wall_s", "s", median(walls))
	r.set("p50_ms", "ms", 1000*percentile(append([]float64(nil), walls...), 0.5))
	r.set("p99_ms", "ms", 1000*percentile(append([]float64(nil), walls...), 0.99))
	r.info["sweeps"], r.info["quiet_sweeps"] = len(sweeps), len(use)
	r.set("answered_ratio", "ratio", float64(good)/float64(r.res.Attempted))
	r.set("rss_mb", "MB", float64(end.hwmKB+maxRSS)/1024)
	r.info["probes_per_sweep"] = scanTargets
	r.info["authdns.fds_setup"], r.info["authdns.fds_end"] = afterSetup.fds, end.fds
	r.info["authdns.threads_setup"], r.info["authdns.threads_end"] = afterSetup.threads, end.threads
	r.info["authdns.rss_growth_mb"] = float64(end.rssKB-afterSetup.rssKB) / 1024

	out, err := auth.stop(15 * time.Second)
	if err != nil {
		return nil, err
	}
	st, err := parseServerStats(out)
	if err != nil {
		return nil, fmt.Errorf("authdns: %w", err)
	}
	if !st.balanced() {
		r.fail("authdns stats do not balance: %+v", st)
	}
	// Every UDP attempt the pipelines report sent reached authdns; so
	// did the readiness probes.
	if st.received < udpSent || st.received > udpSent+ready || st.answered != st.received {
		r.fail("authdns received %d and answered %d; pipelines sent %d (+%d readiness probes)", st.received, st.answered, udpSent, ready)
	}
	r.info["authdns.exit_stats"] = fmt.Sprintf("%+v", st)
	return r, nil
}
