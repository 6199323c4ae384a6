// Package cliprof is the -cpuprofile plumbing the command-line tools
// share: a runtime/pprof CPU profile that is flushed on every exit
// path, including the failure exits that skip deferred calls.
package cliprof

import (
	"fmt"
	"log"
	"os"
	"runtime/pprof"
)

// Profile is a running CPU profile; the zero value (and nil) profile
// nothing.
type Profile struct {
	f *os.File
}

// Start begins writing a CPU profile to path. An empty path returns a
// nil Profile whose methods do nothing.
func Start(path string) (*Profile, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %v", err)
	}
	return &Profile{f: f}, nil
}

// Stop ends the profile and closes its file. It is idempotent, so a
// tool may defer it and still call it before exiting early.
func (p *Profile) Stop() {
	if p == nil || p.f == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		log.Printf("cpuprofile: %v", err)
	}
	p.f = nil
}

// Exit stops the profile, then exits with code.
func (p *Profile) Exit(code int) {
	p.Stop()
	os.Exit(code)
}

// Fatalf logs like log.Printf, stops the profile and exits 1 — the
// log.Fatalf of a profiled tool.
func (p *Profile) Fatalf(format string, args ...any) {
	log.Printf(format, args...)
	p.Exit(1)
}
