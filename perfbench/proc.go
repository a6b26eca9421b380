package main

import (
	"bufio"
	"bytes"
	"context"
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

// Daemon is one monestd child process. Every child is registered in
// children until it has been waited for, so killAll can reap it on any
// exit path.
type Daemon struct {
	bin  string
	args []string
	Addr string // host:port
	URL  string // http://host:port
	log  string
	cmd  *exec.Cmd
	done chan struct{}
	// hwmKB is the highest VmHWM seen across this daemon's incarnations.
	hwmKB int64
}

var (
	childMu  sync.Mutex
	children = map[*Daemon]bool{}
)

// killAll SIGKILLs and reaps every live child. It is called on every exit
// path of the benchmark (normal return, error, panic, signal).
func killAll() {
	childMu.Lock()
	ds := make([]*Daemon, 0, len(children))
	for d := range children {
		ds = append(ds, d)
	}
	childMu.Unlock()
	for _, d := range ds {
		d.Kill()
	}
}

// freeAddr reserves an ephemeral loopback port and releases it for the
// daemon to bind; monestd's listener sets SO_REUSEADDR, so the same port
// can be rebound after a kill.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// StartDaemon launches bin with args plus -addr on a fresh ephemeral
// port, logging to logPath.
func StartDaemon(bin string, args []string, logPath string) (*Daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &Daemon{bin: bin, args: args, Addr: addr, URL: "http://" + addr, log: logPath}
	return d, d.start()
}

func (d *Daemon) start() error {
	logf, err := os.OpenFile(d.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.bin, append([]string{"-addr", d.Addr}, d.args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the child if the benchmark dies without running
	// its cleanup (an unrecovered panic in another goroutine, SIGKILL).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("starting %s: %w", d.bin, err)
	}
	d.cmd, d.done = cmd, make(chan struct{})
	childMu.Lock()
	children[d] = true
	childMu.Unlock()
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // exit status is expected to be a kill
		logf.Close()
		close(done)
	}(cmd, d.done)
	return nil
}

// Restart launches the same command on the same address.
func (d *Daemon) Restart() error { return d.start() }

// Kill SIGKILLs the daemon, recording its VmHWM first, and waits for it.
func (d *Daemon) Kill() {
	if d.cmd == nil {
		return
	}
	d.sampleHWM()
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
	childMu.Lock()
	delete(children, d)
	childMu.Unlock()
	d.cmd = nil
}

// sampleHWM folds the live process's VmHWM into hwmKB.
func (d *Daemon) sampleHWM() {
	if d.cmd == nil {
		return
	}
	if kb, err := vmHWM(d.cmd.Process.Pid); err == nil && kb > d.hwmKB {
		d.hwmKB = kb
	}
}

// PeakRSSMB is the daemon's peak resident set over its incarnations.
func (d *Daemon) PeakRSSMB() float64 {
	d.sampleHWM()
	return float64(d.hwmKB) / 1024
}

// vmHWM reads a process's peak resident set size (kB) from /proc.
func vmHWM(pid int) (int64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM line")
}

// LogTail returns the last lines of the daemon's log, for error reports.
func (d *Daemon) LogTail() string {
	b, _ := os.ReadFile(d.log)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// waitReady polls GET /readyz every 200µs until it answers 200 (the poll
// period bounds the resolution of set-up and recovery times). A
// daemon that exits first fails at once with its log tail.
func waitReady(ctx context.Context, c *http.Client, url string, exited <-chan struct{}) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("daemon exited before becoming ready")
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s/readyz: %w", url, ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// WaitReady waits for this daemon's /readyz.
func (d *Daemon) WaitReady(ctx context.Context, c *http.Client) error {
	if err := waitReady(ctx, c, d.URL, d.done); err != nil {
		return fmt.Errorf("%s: %w\n%s", d.URL, err, d.LogTail())
	}
	return nil
}
