package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// ---- CPU pinning.
//
// The harness runs on the lowest allowed CPU and every daemon on the
// highest, so a hop between them never has to wake an idle CPU that the
// other side also wants. Both are arranged before exec: the process image
// that runs starts with the mask already narrowed, so runtime.NumCPU is 1
// inside it and every thread it ever creates inherits the mask.

const (
	envPinned    = "HNSLOAD_PINNED"     // the harness's CPU, set once it re-exec'd itself pinned
	envDaemonCPU = "HNSLOAD_DAEMON_CPU" // the CPU the daemons go on
)

func schedGetaffinity() ([]int, error) {
	var mask [16]uint64 // 1024 CPUs
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if e != 0 {
		return nil, e
	}
	var cpus []int
	for i, w := range mask {
		for b := 0; b < 64; b++ {
			if w&(1<<uint(b)) != 0 {
				cpus = append(cpus, i*64+b)
			}
		}
	}
	return cpus, nil
}

// schedSetaffinity pins the calling thread to one CPU.
func schedSetaffinity(cpu int) error {
	var mask [16]uint64
	mask[cpu/64] = 1 << uint(cpu%64)
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if e != 0 {
		return e
	}
	return nil
}

// pinSelf re-executes the harness with the calling thread pinned to the
// lowest allowed CPU and GOMAXPROCS=1. It returns only in the pinned
// image (or with an error).
func pinSelf() error {
	if os.Getenv(envPinned) != "" {
		return nil
	}
	cpus, err := schedGetaffinity()
	if err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	runtime.LockOSThread()
	if err := schedSetaffinity(cpus[0]); err != nil {
		return fmt.Errorf("sched_setaffinity(%d): %w", cpus[0], err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// exec keeps duplicate keys and the Go runtime reads the first, so a
	// GOMAXPROCS the caller exported must go before ours is added.
	env := append(envWithout("GOMAXPROCS=", envPinned+"=", envDaemonCPU+"="),
		envPinned+"="+strconv.Itoa(cpus[0]),
		envDaemonCPU+"="+strconv.Itoa(cpus[len(cpus)-1]),
		"GOMAXPROCS=1")
	return syscall.Exec(exe, os.Args, env)
}

// envWithout is the environment minus every entry with one of the prefixes.
func envWithout(prefixes ...string) []string {
	var env []string
next:
	for _, kv := range os.Environ() {
		for _, p := range prefixes {
			if strings.HasPrefix(kv, p) {
				continue next
			}
		}
		env = append(env, kv)
	}
	return env
}

// pinExec is the trampoline the daemons are started through:
// `hnsload -pin-exec <cpu> <binary> <args...>` narrows the calling
// thread to cpu and replaces itself with the binary.
func pinExec(args []string) error {
	if len(args) < 2 {
		return errors.New("-pin-exec wants <cpu> <binary> [args...]")
	}
	cpu, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	runtime.LockOSThread()
	if err := schedSetaffinity(cpu); err != nil {
		return fmt.Errorf("sched_setaffinity(%d): %w", cpu, err)
	}
	return syscall.Exec(args[1], args[1:], os.Environ())
}

// allowedCPUs reads Cpus_allowed_list of every thread of pid.
func allowedCPUs(pid int) (map[string]bool, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return nil, fmt.Errorf("no tasks under /proc/%d", pid)
	}
	set := make(map[string]bool)
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between glob and read
		}
		if v, ok := statusField(data, "Cpus_allowed_list"); ok {
			set[v] = true
		}
	}
	return set, nil
}

// verifyPinning checks that every harness thread may run only on the
// harness CPU and every daemon thread only on the daemon CPU. It returns
// "pinned", or "shared" on a one-CPU box where the two are the same CPU.
func verifyPinning(daemons []*daemon) (string, error) {
	harnessCPU, daemonCPU := os.Getenv(envPinned), os.Getenv(envDaemonCPU)
	if n := runtime.GOMAXPROCS(0); n != 1 {
		return "", fmt.Errorf("pinning not verified: the harness runs with GOMAXPROCS=%d, want 1", n)
	}
	mine, err := allowedCPUs(os.Getpid())
	if err != nil {
		return "", err
	}
	theirs := make(map[string]bool)
	for _, d := range daemons {
		set, err := allowedCPUs(d.cmd.Process.Pid)
		if err != nil {
			return "", err
		}
		for k := range set {
			theirs[k] = true
		}
	}
	if len(mine) != 1 || !mine[harnessCPU] || len(theirs) != 1 || !theirs[daemonCPU] {
		return "", fmt.Errorf("pinning not verified: harness threads may run on CPUs %v (want %s), daemon threads on %v (want %s)",
			keys(mine), harnessCPU, keys(theirs), daemonCPU)
	}
	if harnessCPU == daemonCPU {
		return "shared", nil
	}
	return "pinned", nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- Daemons.

// daemon is one child process of the federation.
type daemon struct {
	layer string // metric prefix: gateway, core, bind_meta, bind_app, nsm
	cmd   *exec.Cmd
	log   *os.File
	ready string        // TCP address whose accept means the daemon serves
	mAddr string        // -metrics address
	done  chan struct{} // closed once the process has been waited for
}

// freePorts picks nTCP TCP and nUDP UDP loopback addresses: bind :0,
// close, pass on. All are held open until the last is bound, so no two
// of a kind are the same port.
func freePorts(nTCP, nUDP int) (tcp, udp []string, err error) {
	var held []io.Closer
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for i := 0; i < nTCP; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		held = append(held, ln)
		tcp = append(tcp, ln.Addr().String())
	}
	for i := 0; i < nUDP; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		held = append(held, pc)
		udp = append(udp, pc.LocalAddr().String())
	}
	return tcp, udp, nil
}

// startDaemon starts bin pinned to the daemon CPU. The child dies with
// the harness (Pdeathsig), whatever path the harness takes out.
func startDaemon(layer, bin, logPath string, args ...string) (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-pin-exec", os.Getenv(envDaemonCPU), bin}, args...)
	cmd := exec.Command(self, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Without the GOMAXPROCS the harness gave itself: a daemon works its
	// own out (1, from the one CPU it may use).
	cmd.Env = envWithout("GOMAXPROCS=")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{layer: layer, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries nothing
		close(d.done)
	}()
	return d, nil
}

// stop kills the daemon and waits until it has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only when it already exited
	<-d.done
	d.log.Close()
}

// poll calls ready every millisecond until it reports true, the daemon
// dies, or the deadline passes. What decides is ready, never the wait.
func (d *daemon) poll(deadline time.Time, what string, ready func() bool) error {
	for !ready() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %s: deadline passed (see %s)", d.layer, what, d.log.Name())
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before %s (see %s)", d.layer, what, d.log.Name())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// waitReady waits until something accepts TCP connections on d.ready.
func (d *daemon) waitReady(deadline time.Time) error {
	return d.poll(deadline, "serving on "+d.ready, func() bool {
		c, err := net.DialTimeout("tcp", d.ready, time.Second)
		if err == nil {
			c.Close()
		}
		return err == nil
	})
}

// waitUDP waits until a UDP socket is bound to addr, by reading the
// kernel's socket table: a datagram probe would need the protocol, and a
// refused one would count against the peers' circuit breakers.
func (d *daemon) waitUDP(addr string, deadline time.Time) error {
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return err
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return err
	}
	want := fmt.Sprintf("0100007F:%04X", p)
	return d.poll(deadline, "serving UDP on "+addr, func() bool {
		data, err := os.ReadFile("/proc/net/udp")
		return err == nil && bytes.Contains(data, []byte(want))
	})
}

// ---- /proc accounting.

// procSample is one reading of a process's counters.
type procSample struct {
	cpuNS    int64 // CPU time: scheduler run time summed over threads, else utime+stime
	syscalls int64 // syscr+syscw
	ctxsw    int64 // voluntary+nonvoluntary, all threads
	rssKB    int64
	hwmKB    int64
}

const clkTck = 100 // USER_HZ; fixed at 100 on Linux for every architecture Go supports

// parseStat extracts utime+stime (fields 14 and 15) from /proc/<pid>/stat.
// The command name may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseStat(data []byte) (ticks int64, err error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("stat: no ')'")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime is field 14 → f[11], stime f[12].
	if len(f) < 13 {
		return 0, errors.New("stat: too few fields")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("stat: utime/stime not numeric")
	}
	return u + s, nil
}

// statusField returns the value of "Key:\tvalue" in a /proc status file.
func statusField(data []byte, key string) (string, bool) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && k == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// statusKB reads a "NNN kB" field.
func statusKB(data []byte, key string) int64 {
	v, ok := statusField(data, key)
	if !ok {
		return 0
	}
	n, _ := strconv.ParseInt(strings.TrimSuffix(v, " kB"), 10, 64)
	return n
}

// statusInt reads a plain integer field.
func statusInt(data []byte, key string) int64 {
	v, _ := statusField(data, key)
	n, _ := strconv.ParseInt(v, 10, 64)
	return n
}

// parseIO extracts syscr+syscw from /proc/<pid>/io.
func parseIO(data []byte) int64 {
	return statusInt(data, "syscr") + statusInt(data, "syscw")
}

// sampleProc reads the counters of pid.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	base := fmt.Sprintf("/proc/%d/", pid)
	stat, err := os.ReadFile(base + "stat")
	if err != nil {
		return s, err
	}
	ticks, err := parseStat(stat)
	if err != nil {
		return s, err
	}
	s.cpuNS = ticks * (1e9 / clkTck)
	status, err := os.ReadFile(base + "status")
	if err != nil {
		return s, err
	}
	s.rssKB = statusKB(status, "VmRSS")
	s.hwmKB = statusKB(status, "VmHWM")
	if io, err := os.ReadFile(base + "io"); err == nil {
		s.syscalls = parseIO(io)
	}
	// utime+stime advance a whole 10 ms tick at a time, charged to
	// whoever runs when the tick lands. The scheduler's own run time is
	// exact, so it is preferred where the kernel exposes it.
	var runNS int64
	tasks, _ := filepath.Glob(base + "task/*")
	for _, t := range tasks {
		if data, err := os.ReadFile(t + "/status"); err == nil {
			s.ctxsw += statusInt(data, "voluntary_ctxt_switches") + statusInt(data, "nonvoluntary_ctxt_switches")
		}
		if data, err := os.ReadFile(t + "/schedstat"); err == nil {
			runNS += parseSchedstat(data)
		}
	}
	if runNS > 0 {
		s.cpuNS = runNS
	}
	return s, nil
}

// parseSchedstat extracts the run time (first field, ns) from
// /proc/<pid>/task/<tid>/schedstat.
func parseSchedstat(data []byte) int64 {
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	n, _ := strconv.ParseInt(f[0], 10, 64)
	return n
}
