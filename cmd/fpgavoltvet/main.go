// Command fpgavoltvet is the repo's invariant checker: a multichecker
// driving the internal/analysis suite over Go packages, go-vet style. Each
// analyzer mechanizes an invariant a past PR violated by hand:
//
//	atomicfs   store writes are atomicWrite or O_APPEND — never torn
//	ctxhttp    outbound fed/server requests carry a context
//	detrand    model packages draw randomness from internal/prng only
//	errclass   errors classify via errors.Is, never ==/switch identity
//	secretcmp  tokens compare in constant time
//
// Usage:
//
//	fpgavoltvet [-analyzers a,b] [-tests=false] [-list] [packages...]
//
// Packages default to ./... . Exit status: 0 clean, 1 findings, 2 usage or
// load failure. Intentional findings are silenced in place with
// `//lint:allow <analyzer> <reason>` on the finding's line or the line
// above; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("fpgavoltvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	tests := fs.Bool("tests", true, "also analyze test files (in-package and external test packages)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range suite.Analyzers() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	var selected []string
	if *names != "" {
		selected = strings.Split(*names, ",")
	}
	analyzers, ok := suite.Select(selected)
	if !ok {
		fmt.Fprintf(stderr, "fpgavoltvet: unknown analyzer in %q (have:", *names)
		for _, a := range suite.Analyzers() {
			fmt.Fprintf(stderr, " %s", a.Name)
		}
		fmt.Fprintln(stderr, ")")
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "fpgavoltvet: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintf(stderr, "fpgavoltvet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fpgavoltvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
