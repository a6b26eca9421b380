package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// Topology is the deployment a workload runs against.
type Topology struct {
	// Nodes is 1 for a single daemon, or the member count of a cluster
	// served through one strict coordinator.
	Nodes int
	// Durable gives each node a -data-dir with -fsync always.
	Durable bool
}

// System is a booted deployment. The untraced run boots real monestd
// processes (procSystem); the traced run assembles the same components
// in the benchmark's process with timing wrappers (traceSystem).
type System interface {
	// URL is where clients send traffic: the node, or the coordinator.
	URL() string
	// WaitReady waits until every daemon's /readyz answers 200.
	WaitReady(ctx context.Context, c *http.Client) error
	// Crash kills the crash target without any shutdown work: the single
	// node, or the first cluster member. A durable target's data directory
	// is saved at the first crash and restored at every later one, so
	// each restart recovers from the same crashed state.
	Crash() error
	// Restart brings the crash target back on the same address (and data
	// directory) and waits until the System answers /readyz.
	Restart(ctx context.Context, c *http.Client) error
	// PeakRSSMB sums the peak resident set of every daemon process.
	PeakRSSMB() float64
	// Close stops everything and waits for it.
	Close()
}

// procSystem is a deployment of monestd child processes.
type procSystem struct {
	nodes []*Daemon
	coord *Daemon // nil for a single node
	// data is the crash target's data directory ("" in memory).
	data string
}

// bootProcs starts the topology's daemons under dir (data and logs) and
// returns without waiting for readiness.
func bootProcs(bin, dir string, t Topology) (*procSystem, error) {
	s := &procSystem{}
	for i := 0; i < t.Nodes; i++ {
		args := daemonArgs()
		if t.Durable {
			data := filepath.Join(dir, fmt.Sprintf("node%d", i))
			if err := os.MkdirAll(data, 0o755); err != nil {
				s.Close()
				return nil, err
			}
			args = append(args, "-data-dir", data, "-fsync", "always", "-checkpoint-interval", "0")
		}
		d, err := StartDaemon(bin, args, filepath.Join(dir, fmt.Sprintf("node%d.log", i)))
		if i == 0 && t.Durable {
			s.data = filepath.Join(dir, "node0")
		}
		if err != nil {
			s.Close()
			return nil, err
		}
		s.nodes = append(s.nodes, d)
	}
	if t.Nodes > 1 {
		urls := make([]string, len(s.nodes))
		for i, d := range s.nodes {
			urls[i] = d.URL
		}
		args := append(daemonArgs(), "-cluster", strings.Join(urls, ","))
		d, err := StartDaemon(bin, args, filepath.Join(dir, "coord.log"))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.coord = d
	}
	return s, nil
}

func (s *procSystem) URL() string {
	if s.coord != nil {
		return s.coord.URL
	}
	return s.nodes[0].URL
}

func (s *procSystem) WaitReady(ctx context.Context, c *http.Client) error {
	for _, d := range s.nodes {
		if err := d.WaitReady(ctx, c); err != nil {
			return err
		}
	}
	if s.coord != nil {
		return s.coord.WaitReady(ctx, c)
	}
	return nil
}

func (s *procSystem) Crash() error {
	s.nodes[0].Kill()
	return crashState(s.data)
}

// crashState saves a durable crash target's data directory at its first
// crash and restores it at later ones ("" = in memory, nothing to do).
// The copies are flushed before the restart is timed, so their writeback
// does not compete with the recovery being measured.
func crashState(data string) error {
	if data == "" {
		return nil
	}
	saved := data + ".crashed"
	var err error
	if _, statErr := os.Stat(saved); statErr != nil {
		err = copyDir(data, saved)
	} else if err = os.RemoveAll(data); err == nil {
		err = copyDir(saved, data)
	}
	syscall.Sync()
	return err
}

// copyDir copies a directory tree of regular files.
func copyDir(from, to string) error {
	return filepath.WalkDir(from, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, b, 0o644)
	})
}

func (s *procSystem) Restart(ctx context.Context, c *http.Client) error {
	if err := s.nodes[0].Restart(); err != nil {
		return err
	}
	if err := s.nodes[0].WaitReady(ctx, c); err != nil {
		return err
	}
	if s.coord != nil {
		return s.coord.WaitReady(ctx, c)
	}
	return nil
}

func (s *procSystem) PeakRSSMB() float64 {
	total := 0.0
	for _, d := range s.nodes {
		total += d.PeakRSSMB()
	}
	if s.coord != nil {
		total += s.coord.PeakRSSMB()
	}
	return total
}

func (s *procSystem) Close() {
	if s.coord != nil {
		s.coord.Kill()
	}
	for _, d := range s.nodes {
		d.Kill()
	}
}
