package parsl_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// reachAllowlist names the exported functions and methods under internal/
// that no non-test file of either module uses, yet stay on purpose. The key
// is the identifier as TestExportedIdentifiersReachable prints it; the value
// says which ROADMAP item decides the entry or which other package's test
// reads it. An entry that gains a non-test caller, or whose identifier is
// gone, fails the test as stale.
var reachAllowlist = map[string]string{
	// ROADMAP item 5: the test surface kept on purpose.
	"executor/htex.Executor.Command":      "ROADMAP item 5: the §4.3.1 command channel, driven by htex's and dfk's tests",
	"executor/htex.Executor.RestoreShard": "ROADMAP item 5: respawns a dead shard, driven by htex's restore tests",
	"cluster.Cluster.FailNode":            "ROADMAP item 5: node-failure injection, driven by cluster's tests",
	"cluster.Cluster.RepairNode":          "ROADMAP item 5: returns a failed node, driven by cluster's tests",

	"monitor.NewFileSink": "ROADMAP item 6 wires it: the only producer of parsl-monitor's input",

	"provider.NewAWS":         "ROADMAP item 14 decides the cloud providers",
	"provider.NewGoogleCloud": "ROADMAP item 14 decides the cloud providers",
	"provider.NewJetstream":   "ROADMAP item 14 decides the cloud providers",
	"provider.NewKubernetes":  "ROADMAP item 14 decides the cloud providers",

	"task.Graph.Deps":       "the DFK no longer writes the edge lists; task.edge_ns's AddEdge is their last writer, and ROADMAP 1(a) then item 15 delete them",
	"task.Graph.Dependents": "the DFK no longer writes the edge lists; task.edge_ns's AddEdge is their last writer, and ROADMAP 1(a) then item 15 delete them",
	"task.Graph.EdgeCount":  "the DFK no longer writes the edge lists; task.edge_ns's AddEdge is their last writer, and ROADMAP 1(a) then item 15 delete them",

	"ftp.NewServer":   "the loopback server data's and dfk's staging tests run the real client against",
	"ftp.Server.Addr": "the loopback server data's and dfk's staging tests run the real client against",

	// Probes that a test in another package reads.
	"wal.Log.Sync":                     "read by dfk's TestRecoverResumesLiveTasks, TestWALRecordsFullLifecycle and TestLateSettleAfterWALTerminalIsNoOp",
	"wal.Log.LiveCount":                "read by dfk's TestCancelDuringSubmitClosesWAL",
	"executor/htex.Interchange.Config": "read by parsl's TestHTEXHeartbeatKnobsPlumbed",
	"cluster.Midway":                   "read by provider's TestSlurmPartitionValidation",
}

// TestExportedIdentifiersReachable is the island check by identifier rather
// than by package: every exported function and method declared in a non-test
// file under internal/ must be used by a non-test file of the root module
// (commands and examples included) or of the benchmark module. Three kinds of
// method count as used without a call site:
//   - a method an interface declares, when its receiver (or a pointer to it)
//     implements that interface: calls through the interface reach it;
//   - Unwrap, Is and As, which package errors looks up at run time;
//   - a method of a type that package parsl exports: an alias target, or a
//     named type in the signature of an exported func or var (one level).
//
// It sees direct uses only, so deleting a caller can expose a new finding.
func TestExportedIdentifiersReachable(t *testing.T) {
	start := time.Now()
	fset := token.NewFileSet()
	l := &loader{fset: fset, exports: map[string]string{}, checked: map[string]*types.Package{}}
	l.gc = importer.ForCompiler(fset, "gc", l.lookup)

	root := l.module(t, ".", "repro")
	bench := l.module(t, "benchmark", "repro/benchmark")

	// Declarations: exported funcs and methods under internal/.
	declared := map[string]*types.Func{}
	for _, p := range root {
		rel, ok := strings.CutPrefix(p.types.Path(), "repro/internal/")
		if !ok {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				declared[funcKey(rel, fn)] = fn
			}
		}
	}

	// Uses, and every interface a use could dispatch through.
	used := map[string]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	for _, p := range append(root, bench...) {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
				if rel, ok := strings.CutPrefix(fn.Pkg().Path(), "repro/internal/"); ok {
					used[funcKey(rel, fn.Origin())] = true
				}
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				addIface(it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for path := range l.exports {
		if l.checked[path] != nil {
			continue
		}
		pkg, err := l.Import(path)
		if err != nil {
			t.Fatalf("import %s: %v", path, err)
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
	}

	public := publicTypes(l.checked["repro"])

	var findings []string
	for key, fn := range declared {
		if used[key] || exempt(fn, ifaces, public) {
			continue
		}
		findings = append(findings, key)
	}
	sort.Strings(findings)

	var unlisted []string
	for _, key := range findings {
		if _, ok := reachAllowlist[key]; !ok {
			unlisted = append(unlisted, key)
		}
	}
	var stale []string
	for key := range reachAllowlist {
		if i := sort.SearchStrings(findings, key); i == len(findings) || findings[i] != key {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)

	t.Logf("%d exported funcs and methods under internal/; %d findings, %d allowlisted (%d entries); %v",
		len(declared), len(findings), len(findings)-len(unlisted), len(reachAllowlist), time.Since(start).Round(time.Millisecond))
	if len(unlisted) > 0 {
		t.Errorf("%d exported identifiers under internal/ are used by no non-test file of either module; "+
			"delete them, give them a caller, or allowlist them with a reason:\n\t%s",
			len(unlisted), strings.Join(unlisted, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d allowlist entries are stale (now used, or gone); remove them:\n\t%s",
			len(stale), strings.Join(stale, "\n\t"))
	}
}

// funcKey names a function as "pkg.Func" or a method as "pkg.Type.Method",
// pkg being the import path below repro/internal/.
func funcKey(rel string, fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return rel + "." + fn.Name()
	}
	if n := receiver(fn); n != nil {
		return rel + "." + n.Obj().Name() + "." + fn.Name()
	}
	return rel + "." + types.TypeString(recv.Type(), nil) + "." + fn.Name() // an interface literal's method
}

// receiver returns the named type a method is declared on: nil for a
// function or a method of an interface literal.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// exempt reports whether a method is reached without a direct call: see
// TestExportedIdentifiersReachable.
func exempt(fn *types.Func, ifaces map[string][]*types.Interface, public map[*types.TypeName]bool) bool {
	n := receiver(fn)
	if n == nil {
		return false
	}
	switch fn.Name() {
	case "Unwrap", "Is", "As":
		return true
	}
	if public[n.Obj()] {
		return true
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
			return true
		}
	}
	return false
}

// publicTypes lists the named types package parsl exports: the targets of its
// type aliases and the named types in the signatures of its exported funcs
// and vars. It does not follow those types' own fields or methods.
func publicTypes(pkg *types.Package) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	var collect func(t types.Type)
	collect = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			out[t.Origin().Obj()] = true
		case *types.Pointer:
			collect(t.Elem())
		case *types.Slice:
			collect(t.Elem())
		case *types.Array:
			collect(t.Elem())
		case *types.Map:
			collect(t.Key())
			collect(t.Elem())
		case *types.Chan:
			collect(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					collect(tup.At(i).Type())
				}
			}
		}
	}
	for _, name := range pkg.Scope().Names() {
		switch obj := pkg.Scope().Lookup(name).(type) {
		case *types.TypeName:
			if obj.Exported() && obj.IsAlias() {
				collect(obj.Type())
			}
		case *types.Func, *types.Var:
			if obj.Exported() {
				collect(obj.Type())
			}
		}
	}
	return out
}

// loader type-checks a module's own packages from source and imports
// everything else from the export data `go list -export` reports.
type loader struct {
	fset    *token.FileSet
	gc      types.Importer
	exports map[string]string         // import path -> export data file
	checked map[string]*types.Package // packages type-checked from source
}

type sourcePkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *loader) lookup(path string) (io.ReadCloser, error) {
	f, ok := l.exports[path]
	if !ok || f == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p := l.checked[path]; p != nil {
		return p, nil
	}
	return l.gc.Import(path)
}

// module lists the packages of the module in dir with their dependencies,
// and type-checks those whose module is modPath, dependencies first.
func (l *loader) module(t *testing.T, dir, modPath string) []sourcePkg {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command("go", "-C", dir, "list", "-e", "-deps", "-export",
		"-f", "{{.ImportPath}}\t{{.Export}}\t{{with .Module}}{{.Path}}{{end}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go -C %s list: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []sourcePkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			t.Fatalf("go list: unexpected line %q", line)
		}
		path, export, mod, pkgDir, goFiles := f[0], f[1], f[2], f[3], f[4]
		if export != "" {
			l.exports[path] = export
		}
		if mod != modPath || goFiles == "" {
			continue
		}
		var files []*ast.File
		for _, name := range strings.Fields(goFiles) {
			file, err := parser.ParseFile(l.fset, filepath.Join(pkgDir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		l.checked[path] = pkg
		pkgs = append(pkgs, sourcePkg{pkg, files, info})
	}
	return pkgs
}
