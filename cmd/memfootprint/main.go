// Command memfootprint prints Table 1: the per-lock, per-waiter and
// per-holder memory footprint of every lock algorithm, plus measured
// atomic operations per acquire in uncontended and contended runs.
// With -json the table is emitted machine-readable; with -lock a
// comma-separated list of registry names (canonical or simulator
// spellings) measures those locks instead, variants included.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"shfllock/internal/bench"
	"shfllock/internal/lockreg"
	"shfllock/internal/simlocks"
	"shfllock/internal/topology"
)

// lineup resolves the -lock list through the registry into the simulator
// makers Table 1 measures, failing loudly on a typo or a native-only lock
// (Table 1 measures the simulator substrate).
func lineup(spec string) ([]simlocks.Maker, []simlocks.RWMaker, error) {
	var mutexes []simlocks.Maker
	var rwLocks []simlocks.RWMaker
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		ent, ok := lockreg.Find(name)
		if !ok {
			return nil, nil, lockreg.UnknownSim(name)
		}
		if mk, ok := ent.SimMaker(); ok {
			mutexes = append(mutexes, mk)
		} else if mk, ok := ent.SimRWMaker(); ok {
			rwLocks = append(rwLocks, mk)
		} else {
			return nil, nil, fmt.Errorf("lock %q has no simulator implementation, so no Table 1 row (substrates: %s)", ent.Name, ent.Substrates())
		}
	}
	return mutexes, rwLocks, nil
}

// run parses args and writes the table to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("memfootprint", flag.ExitOnError)
	var (
		quick   = fs.Bool("quick", false, "shorter measurement runs")
		sockets = fs.Int("sockets", 8, "simulated sockets")
		cores   = fs.Int("cores", 24, "cores per socket")
		jsonOut = fs.Bool("json", false, "emit Table 1 as JSON instead of text")
		lock    = fs.String("lock", "", "comma-separated locks: measure only these (any registry spelling)")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with the usage
	cfg := bench.Config{
		Topo:  topology.Machine{Sockets: *sockets, CoresPerSocket: *cores},
		Quick: *quick,
		Seed:  1,
	}
	if *lock == "" && !*jsonOut {
		e, _ := bench.ByID("table1")
		e.Run(cfg, w)
		return nil
	}
	mutexes, rwLocks := bench.Table1Lineup()
	if *lock != "" {
		var err error
		if mutexes, rwLocks, err = lineup(*lock); err != nil {
			return err
		}
	}
	data := bench.Table1Data(cfg, mutexes, rwLocks)
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(data)
	}
	bench.WriteTable1(w, data)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
