// Command deadcheck (make deadcheck, from the module root) fails on a
// declaration in the non-test files of `go list ./...` that no non-test file
// refers to from outside the declaration itself, unless it is a method an
// interface of the same name could call, lies in bench/ (frozen; its
// references count), or keep.txt keeps it: one "key reason" line, the key a
// package path ("internal/x") or a declaration ("internal/x.Type.Method").
// A keep.txt line that keeps nothing fails too.
package main

import (
	_ "embed"
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
	"slices"
	"strings"
)

//go:embed keep.txt
var keepList string

func main() {
	keys, positions, err := unreferenced()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(2)
	}
	fail, kept := false, map[string]bool{} // keep.txt key -> kept something
	for _, line := range strings.Split(keepList, "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			kept[f[0]] = false
		}
	}
hits:
	for i, key := range keys {
		for k := key; k != ""; k = k[:max(strings.LastIndex(k, "."), 0)] {
			if _, ok := kept[k]; ok {
				kept[k] = true
				continue hits
			}
		}
		fmt.Printf("%s: %s has no caller outside tests\n", positions[i], key)
		fail = true
	}
	for k, ok := range kept {
		if !ok {
			fmt.Printf("keep.txt: %s is stale: it is referenced or no longer declared\n", k)
			fail = true
		}
	}
	if fail {
		fmt.Println("deadcheck: delete code that no program reaches, or list it in cmd/deadcheck/keep.txt with its reason")
		os.Exit(1)
	}
}

// unreferenced lists the unused judged declarations of the module in the
// current directory, and where each is, package by package in source order.
func unreferenced() (keys, positions []string, err error) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-f",
		"{{.ImportPath}}\t{{.Export}}\t{{.Standard}}\t{{.Dir}}{{range .GoFiles}}\t{{.}}{{end}}", "./...").Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v", err)
	}
	var pkgs [][]string // path, export, standard, dir, files...; dependencies first
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if exports[f[0]] = f[1]; f[2] == "false" {
			pkgs = append(pkgs, f)
		}
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	root, _ := os.Getwd()
	decls, infos := []types.Object{}, []*types.Info{}
	skip := map[types.Object][]ast.Node{} // where a reference does not count
	declare := func(obj types.Object, n ast.Node) {
		if obj != nil && obj.Name() != "_" {
			decls, skip[obj] = append(decls, obj), append(skip[obj], n)
		}
	}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p[4:] {
			rel, _ := filepath.Rel(root, filepath.Join(p[3], name)) // for the report
			f, err := parser.ParseFile(fset, rel, nil, 0)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		if checked[p[0]], err = conf.Check(p[0], fset, files, info); err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %v", p[0], err)
		}
		if infos = append(infos, info); strings.HasPrefix(p[3], filepath.Join(root, "bench")) {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if n := recvNamed(info.Defs[d.Name]); n != nil { // naming its receiver is no use of a type
						skip[n.Obj()] = append(skip[n.Obj()], d.Recv)
					}
					if d.Recv != nil || d.Name.Name != "main" && d.Name.Name != "init" {
						declare(info.Defs[d.Name], d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(info.Defs[id], s)
							}
						}
					}
				}
			}
		}
	}
	// Interfaces a method may be called through: the module's and std's.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	for path := range exports {
		if p, err := gc.Import(path); err == nil {
			for _, n := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, info := range infos {
		for _, tv := range info.Types {
			addIface(tv.Type)
		}
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = used[obj] || !slices.ContainsFunc(skip[obj], func(n ast.Node) bool { return n.Pos() <= id.Pos() && id.Pos() < n.End() })
		}
	}
	for _, obj := range decls {
		key, n := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), "rdnsprivacy"), "/")+".", recvNamed(obj)
		if n != nil {
			key += n.Obj().Name() + "."
			used[obj] = used[obj] || obj.Name() == "Is" || obj.Name() == "As" || obj.Name() == "Unwrap" // errors' unnamed interfaces
			for _, it := range ifaces[obj.Name()] {
				used[obj] = used[obj] || n.TypeParams().Len() == 0 && (types.Implements(n, it) || types.Implements(types.NewPointer(n), it))
			}
		}
		if pos := fset.Position(obj.Pos()); !used[obj] {
			keys, positions = append(keys, key+obj.Name()), append(positions, fmt.Sprintf("%s:%d", pos.Filename, pos.Line))
		}
	}
	return keys, positions, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvNamed is the named receiver type of a method, nil for anything else.
func recvNamed(obj types.Object) *types.Named {
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		t := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, _ := t.(*types.Named)
		return n
	}
	return nil
}
