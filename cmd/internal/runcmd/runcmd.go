// Package runcmd is the harness the simulation commands (arraysim, fleetsim,
// experiments) share: the common flags and startup, usage errors,
// profiling, the ops server, a single run's record in a run store, the
// manifest commit, and the synthetic trace generator.
package runcmd

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"

	diskarray "repro"
	"repro/internal/atomicio"
	"repro/internal/opsserver"
	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// Command is one command's shared state: its logger, the flags every
// command has, and the names of the flags set on the command line.
type Command struct {
	Name string
	Log  *telemetry.Logger
	// OpsAddr is -ops-addr: serve the live ops plane on this address.
	OpsAddr string
	// Explicit holds the names of the flags given on the command line.
	Explicit map[string]bool

	fs                      *flag.FlagSet
	stderr                  io.Writer
	exit                    func(int)
	verbose, quiet, version bool
	prof                    *profiles
}

// New registers -v, -quiet, -version and -ops-addr on the process flag set.
func New(name string) *Command {
	return newCommand(name, flag.CommandLine, os.Stderr, os.Exit)
}

func newCommand(name string, fs *flag.FlagSet, stderr io.Writer, exit func(int)) *Command {
	c := &Command{Name: name, fs: fs, stderr: stderr, exit: exit}
	fs.BoolVar(&c.verbose, "v", false, "verbose logging (include debug lines)")
	fs.BoolVar(&c.quiet, "quiet", false, "log errors only")
	fs.BoolVar(&c.version, "version", false, "print build information and exit")
	fs.StringVar(&c.OpsAddr, "ops-addr", "", "serve the live ops plane (/metrics, /progress, /healthz) on this address, e.g. 127.0.0.1:9100, while the command runs")
	return c
}

// Parse parses the command line and starts the logger. -version prints the
// build and exits 0; a positional argument is a usage error.
func (c *Command) Parse() { c.parse(os.Args[1:]) }

func (c *Command) parse(args []string) {
	if err := c.fs.Parse(args); err != nil {
		c.exit(2)
	}
	c.Log = telemetry.NewLogger(c.Name, c.stderr, telemetry.LevelFromFlags(c.quiet, c.verbose))
	if c.version {
		fmt.Println(runstore.VersionLine(c.Name))
		c.exit(0)
	}
	c.Explicit = make(map[string]bool)
	c.fs.Visit(func(f *flag.Flag) { c.Explicit[f.Name] = true })
	if c.fs.NArg() > 0 {
		c.Usage("unexpected positional arguments %q", c.fs.Args())
	}
}

// Usage reports a contradictory or impossible flag set: the message, then
// the flag summary, then exit 2. Flag errors die here, not as a cryptic
// error from deep inside the simulation.
func (c *Command) Usage(format string, args ...any) {
	fmt.Fprintf(c.stderr, "%s: %s\n\n", c.Name, fmt.Sprintf(format, args...))
	c.fs.Usage()
	c.exit(2)
}

// Check makes a non-nil err a usage error.
func (c *Command) Check(err error) {
	if err != nil {
		c.Usage("%v", err)
	}
}

// Choice returns nil when got is one of valid, and otherwise an error of the
// form `invalid -name "got": valid values: a | b | c`, so a typo in any
// enumerated flag (-policy, -raid, -fig, -routing) names the flag, the
// rejected value and every accepted one. An empty valid set always rejects.
func Choice(name, got string, valid ...string) error {
	for _, v := range valid {
		if got == v {
			return nil
		}
	}
	return fmt.Errorf("invalid -%s %q: valid values: %s", name, got, strings.Join(valid, " | "))
}

// Strings converts a slice of any string-kinded type (PolicyKind,
// RoutingPolicy, RAIDLevel, ...) into the []string Choice wants.
func Strings[T ~string](vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(v)
	}
	return out
}

// StartOps serves the live ops plane on -ops-addr with o's views, or
// returns nil (a valid no-op server) when the flag is unset.
func (c *Command) StartOps(o opsserver.Options) *opsserver.Server {
	if c.OpsAddr == "" {
		return nil
	}
	o.Addr, o.Tool, o.Log = c.OpsAddr, c.Name, c.Log
	srv, err := opsserver.Start(o)
	if err != nil {
		c.Log.Fatal(err)
	}
	return srv
}

// profiles holds -cpuprofile, -memprofile and -runtime-trace.
type profiles struct{ cpu, mem, trace string }

// ProfileFlags registers -cpuprofile, -memprofile and -runtime-trace.
func (c *Command) ProfileFlags() {
	c.prof = &profiles{}
	c.fs.StringVar(&c.prof.cpu, "cpuprofile", "", "write a CPU profile to this file")
	c.fs.StringVar(&c.prof.mem, "memprofile", "", "write a heap profile to this file")
	c.fs.StringVar(&c.prof.trace, "runtime-trace", "", "write a Go runtime execution trace to this file")
}

// StartProfiles starts the CPU profile and runtime trace the flags ask for.
// The returned function writes the heap profile and stops them; the
// command defers it.
func (c *Command) StartProfiles() (stop func()) {
	p := c.prof
	stopCPU := c.stream(p.cpu, pprof.StartCPUProfile, pprof.StopCPUProfile)
	stopTrace := c.stream(p.trace, rtrace.Start, rtrace.Stop)
	return func() {
		if p.mem != "" {
			c.writeHeapProfile(p.mem)
		}
		stopTrace()
		stopCPU()
	}
}

// stream starts a profile that writes into path for the rest of the
// process and returns the function that stops it; nothing when path is
// empty.
func (c *Command) stream(path string, start func(io.Writer) error, stop func()) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path) //simlint:allow atomicwrite -- pprof and runtime/trace stream into a live file; a torn profile from a crashed run is acceptable debug output
	if err != nil {
		c.Log.Fatal(err)
	}
	if err := start(f); err != nil {
		c.Log.Fatal(err)
	}
	return func() { stop(); f.Close() }
}

func (c *Command) writeHeapProfile(path string) {
	f, err := atomicio.Create(path)
	if err != nil {
		c.Log.Fatal(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Abort()
		c.Log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		c.Log.Fatal(err)
	}
}

// SyntheticTrace generates the commands' synthetic workload: the default
// generator with a diurnal arrival profile and twelve popularity phases
// across the trace, arrivals sped up by intensity. arraysim and fleetsim
// both use it, so a fleet of one replays the same requests as one array.
func SyntheticTrace(requests int, intensity float64, seed int64) (*diskarray.Trace, error) {
	cfg := diskarray.DefaultGenConfig()
	cfg.NumRequests = requests
	cfg.MeanInterarrival /= intensity
	cfg.Seed = seed
	cfg.DiurnalProfile = diskarray.DefaultDiurnalProfile()
	duration := float64(cfg.NumRequests) * cfg.MeanInterarrival
	cfg.PhaseSeconds = duration / 12
	cfg.PhaseRotate = 0.10
	return diskarray.GenerateTrace(cfg)
}
