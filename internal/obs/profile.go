package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiles manages the -cpuprofile/-memprofile/-trace output files shared
// by cmd/study and cmd/inspect. Stop is idempotent and must run on every
// exit path — including cancellation and the partial-failure exit codes —
// so the files are complete and closed whatever code the process exits
// with; the commands guarantee that by deferring Stop before any study
// work starts.
type Profiles struct {
	cpuFile   *os.File
	traceFile *os.File
	memPath   string
	stopped   bool
}

// StartProfiles opens the requested profile outputs: a CPU profile
// streaming to cpuPath, an execution trace streaming to tracePath, and a
// heap profile written at Stop time to memPath. Empty paths disable the
// corresponding profile. On error everything already started is stopped.
func StartProfiles(cpuPath, memPath, tracePath string) (*Profiles, error) {
	p := &Profiles{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpuFile = f
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			p.Stop()
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			p.Stop()
			return nil, fmt.Errorf("trace: %w", err)
		}
		p.traceFile = f
	}
	return p, nil
}

// Stop flushes and closes every active profile. The heap profile is taken
// here (after a GC, so it reflects live objects). Errors are returned but
// the remaining profiles are still stopped; calling Stop again is a no-op.
func (p *Profiles) Stop() error {
	if p == nil || p.stopped {
		return nil
	}
	p.stopped = true
	var first error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil && first == nil {
			first = err
		}
	}
	if p.traceFile != nil {
		trace.Stop()
		if err := p.traceFile.Close(); err != nil && first == nil {
			first = err
		}
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			if first == nil {
				first = err
			}
		} else {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
