// Command repolint runs the repository's machine-checked invariant
// suite (internal/lint): the analyzers that enforce DESIGN.md §8's
// buffer-ownership and hot-path allocation discipline, §12's
// telemetry contracts, §13's durability and error-taxonomy rules, and
// the chaos seams of the wire plane.
//
// Standalone, from anywhere inside the module:
//
//	repolint ./...                 # whole tree (the CI gate)
//	repolint ./internal/epochwire  # one package
//	repolint -list                 # print the analyzers and exit
//
// As a vet tool, sharing go vet's build graph and export data:
//
//	go vet -vettool=$(which repolint) ./...
//
// Exit status: 0 clean, 1 operational error, 2 findings — the same
// contract go vet expects from an analysis driver.
//
// Suppressions (//lint:ignore <analyzer> <reason>) and their policy —
// including the hard "no suppressions in internal/epochwire" rule —
// are documented in DESIGN.md §14.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/daemon"
	"repro/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool, returning its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	// The go vet driver protocol probes the tool before handing it
	// package config files: -V=full must print an identity line, and
	// -flags must list the tool's flag schema (we add none).
	for _, arg := range args {
		switch arg {
		case "-V=full", "--V=full":
			fmt.Fprintln(stdout, "repolint version 1")
			return 0
		case "-flags", "--flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runVetUnit(args[0], stderr)
	}
	return runStandalone(args, stdout, stderr)
}

// runStandalone lists the packages with the go command, type-checks
// them against the export data of that one listing, and runs the
// suite over every matched unit.
func runStandalone(args []string, stdout, stderr io.Writer) int {
	fs := daemon.NewFlagSet("repolint", "usage: repolint [packages]\n       go vet -vettool=$(which repolint) [packages]\n\n", stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := daemon.Parse(fs, args); err != nil {
		return daemon.Exit(stderr, err)
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, _, err := lint.ModuleRoot(".")
	var units []*lint.Unit
	if err == nil {
		units, err = lint.NewLoader().Load(root, patterns)
	}
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 1
	}
	found := 0
	for _, u := range units {
		for _, d := range lint.RunUnit(u, lint.Analyzers()) {
			fmt.Fprintln(stdout, d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(stderr, "repolint: %d finding(s)\n", found)
		return 2
	}
	return 0
}

// vetCfg is the part of the package-unit description the go vet
// driver hands a vettool that repolint reads: the file set to analyze
// plus the import universe as compiled export data, so no re-building
// is needed.
type vetCfg struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one go vet package unit described by cfgPath.
func runVetUnit(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 1
	}
	var cfg vetCfg
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "repolint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The driver always expects the facts file, even though repolint
	// carries no cross-package facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	unit, err := lint.Check(cfg.ImportPath, cfg.GoFiles, cfg.ImportMap, cfg.PackageFile)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(stderr, "repolint:", err)
		return 1
	}
	diags := lint.RunUnit(unit, lint.Analyzers())
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
