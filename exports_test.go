package topoopt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportConsumers lists the exported functions and methods under
// internal/ that no non-test code references by name, each with the
// consumer that keeps it: another package's tests, a recorded benchmark
// or an interface. Keys are "<dir>.<Name>" for functions and
// "<dir>.<Recv>.<Name>" for methods.
var exportConsumers = map[string]string{
	"internal/graph.Graph.Connected":                "core, flexnet and topo tests check built fabrics are connected",
	"internal/graph.Graph.InDegree":                 "core tests check TopologyFinder's degree bound",
	"internal/graph.Graph.Neighbors":                "topo tests check fabric wiring",
	"internal/graph.Graph.ShortestPath":             "netsim and route tests build flow paths",
	"internal/model.DLRMAllToAll":                   "parallel tests use the §5.4 all-to-all model",
	"internal/model.Model.DenseParamBytes":          "traffic tests check AllReduce volumes",
	"internal/netsim.Sim.SetLinkCap":                "BenchmarkNetsimReconfigChurn, recorded in BENCH_netsim.json",
	"internal/parallel.Strategy.IsPureDataParallel": "flexnet tests check search results",
	"internal/route.Table.PairCount":                "core tests check TopologyFinder's routing table",
	"internal/serve.NewFaultInjector":               "the chaos suite (make chaos)",
	"internal/serve.FaultInjector.Wrap":             "the chaos suite (make chaos)",
	"internal/serve.FaultInjector.Counts":           "the chaos suite (make chaos)",
}

// TestInternalExportsHaveConsumers keeps internal/ free of exports that
// nothing uses: every exported function or method declared there must be
// referenced by some non-test file in the repo (cmd/, examples/ and the
// topobench module included), or be listed in exportConsumers with the
// consumer that keeps it. Matching is by identifier name, so a name used
// anywhere counts as consumed; the check errs toward keeping code.
func TestInternalExportsHaveConsumers(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string]string{} // key → name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inInternal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		decls := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fn.Name] = true
			if !inInternal || !fn.Name.IsExported() {
				continue
			}
			key := filepath.ToSlash(filepath.Dir(path)) + "."
			if fn.Recv != nil && len(fn.Recv.List) > 0 {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			declared[key+fn.Name.Name] = fn.Name.Name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unconsumed, stale []string
	for key, name := range declared {
		if !used[name] {
			if _, ok := exportConsumers[key]; !ok {
				unconsumed = append(unconsumed, key)
			}
		}
	}
	for key := range exportConsumers {
		name, ok := declared[key]
		switch {
		case !ok:
			stale = append(stale, key+" (no longer declared)")
		case used[name]:
			stale = append(stale, key+" (now referenced by non-test code)")
		}
	}
	sort.Strings(unconsumed)
	sort.Strings(stale)
	for _, key := range unconsumed {
		t.Errorf("%s: exported but referenced by no non-test code; delete it, move it into the test that uses it, or list its consumer in exportConsumers", key)
	}
	for _, key := range stale {
		t.Errorf("exportConsumers entry %s; remove it", key)
	}
}

// recvName returns a method receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
