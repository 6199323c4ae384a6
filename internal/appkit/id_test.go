package appkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fnvID is the label hash recordings were written with: hash/fnv's
// 64-bit FNV-1a over the prefixed label.
func fnvID(label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return h.Sum64()
}

// corpusLabels collects the string-literal labels the corpus programs
// (internal/apps) pass to the FUNC and BB instrumentation helpers.
func corpusLabels(t *testing.T) (funcs, blocks []string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "apps", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "appkit" {
				return true
			}
			arg := 1
			switch sel.Sel.Name {
			case "Func", "BB", "Block":
			case "BlockOp":
				arg = 0
			default:
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Fatalf("%s: appkit.%s label is not a string literal", fset.Position(call.Pos()), sel.Sel.Name)
			}
			label, _ := strconv.Unquote(lit.Value)
			if sel.Sel.Name == "Func" {
				funcs = append(funcs, label)
			} else {
				blocks = append(blocks, label)
			}
			return true
		})
	}
	return funcs, blocks
}

// TestLabelIDsMatchFNV pins FuncID and BBID, for every label in the
// corpus, to hash/fnv over "func:"+name and "bb:"+name — the values
// every recording so far was written with, so the inline hash keeps
// recordings byte-identical.
func TestLabelIDsMatchFNV(t *testing.T) {
	funcs, blocks := corpusLabels(t)
	if len(funcs) < 10 || len(blocks) < 30 {
		t.Fatalf("found %d function and %d block labels; the corpus scan is broken", len(funcs), len(blocks))
	}
	for _, name := range append(funcs, "", "x") {
		if got, want := FuncID(name), fnvID("func:"+name); got != want {
			t.Errorf("FuncID(%q) = %#x, want %#x", name, got, want)
		}
	}
	for _, name := range append(blocks, "", "x") {
		if got, want := BBID(name), fnvID("bb:"+name); got != want {
			t.Errorf("BBID(%q) = %#x, want %#x", name, got, want)
		}
	}
}

// TestLabelIDsAllocFree: hashing an instrumentation label allocates
// nothing — it runs at every FUNC/BB scheduling point.
func TestLabelIDsAllocFree(t *testing.T) {
	name := strings.Repeat("mysql.dispatch", 2)
	var sink uint64
	if allocs := testing.AllocsPerRun(1000, func() { sink += FuncID(name) + BBID(name) }); allocs != 0 {
		t.Fatalf("FuncID+BBID allocate %v/op, want 0", allocs)
	}
	_ = sink
}
