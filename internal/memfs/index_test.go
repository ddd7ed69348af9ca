package memfs

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"strings"
	"testing"
)

// walkRead is the reference read: the fault hook with the clean path,
// then a walk of the tree, never consulting or filling the index.
func walkRead(fs *FS, p string) (string, error) {
	fs.mu.RLock()
	fn := fs.fault
	fs.mu.RUnlock()
	if fn != nil {
		if err := fn("read", clean(p)); err != nil {
			return "", err
		}
	}
	fs.mu.RLock()
	n, err := fs.lookup(p)
	if err != nil {
		fs.mu.RUnlock()
		return "", err
	}
	if n.dir {
		fs.mu.RUnlock()
		return "", fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	v := n.view()
	fs.mu.RUnlock()
	switch {
	case v.read != nil:
		return v.read(), nil
	case v.readAppend != nil:
		return string(v.readAppend(nil)), nil
	}
	return v.content, nil
}

// walkWrite is the reference write, resolved the same way as walkRead.
func walkWrite(fs *FS, p, data string) error {
	fs.mu.RLock()
	fn := fs.fault
	fs.mu.RUnlock()
	if fn != nil {
		if err := fn("write", clean(p)); err != nil {
			return err
		}
	}
	fs.mu.Lock()
	n, err := fs.lookup(p)
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	if n.dir {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	w := n.write
	if w == nil && !n.dynamic() {
		n.content = data
	}
	fs.mu.Unlock()
	if w != nil {
		return w(data)
	}
	if n.dynamic() {
		return fmt.Errorf("%w: %s", ErrReadOnly, p)
	}
	return nil
}

const (
	opAddFile = iota
	opAddDynamic
	opAddAppend
	opMkdirAll
	opWrite
	opRemove
	opRemoveAll
	opRename
	opRead
	opReadAppend
	numOps
)

type twinOp struct {
	kind int
	p, q string // q: rename target or written data
	id   int    // distinguishes the content of recreated files
}

// twinFS runs operations on one FS, either through its indexed API or,
// for reads and writes, through the walk-only reference. Its fault hook
// logs every call and fails every seventh, so the indexed and reference
// twins must also agree on when and with which path the hook runs.
type twinFS struct {
	fs    *FS
	walk  bool
	state map[int]string // written data of dynamic files, by op id
	hook  []string
}

func newTwinFS(walk bool) *twinFS {
	t := &twinFS{fs: New(), walk: walk, state: map[int]string{}}
	t.fs.SetFaultHook(func(op, p string) error {
		t.hook = append(t.hook, op+" "+p)
		if len(t.hook)%7 == 3 {
			return fmt.Errorf("hook: %s %s", op, p)
		}
		return nil
	})
	return t
}

func (t *twinFS) write(id int) WriteFunc {
	return func(data string) error {
		if data == "bad" {
			return errors.New("bad write")
		}
		t.state[id] = data
		return nil
	}
}

func (t *twinFS) apply(o twinOp) string {
	var out string
	var err error
	switch o.kind {
	case opAddFile:
		err = t.fs.AddFile(o.p, fmt.Sprintf("static%d", o.id))
	case opAddDynamic:
		var w WriteFunc
		if o.id%2 == 0 {
			w = t.write(o.id)
		}
		err = t.fs.AddDynamic(o.p, func() string {
			return fmt.Sprintf("dyn%d=%s", o.id, t.state[o.id])
		}, w)
	case opAddAppend:
		err = t.fs.AddDynamicAppend(o.p, func(buf []byte) []byte {
			return fmt.Appendf(buf, "app%d=%s", o.id, t.state[o.id])
		}, t.write(o.id))
	case opMkdirAll:
		err = t.fs.MkdirAll(o.p)
	case opWrite:
		if t.walk {
			err = walkWrite(t.fs, o.p, o.q)
		} else {
			err = t.fs.WriteFile(o.p, o.q)
		}
	case opRemove:
		err = t.fs.Remove(o.p)
	case opRemoveAll:
		err = t.fs.RemoveAll(o.p)
	case opRename:
		err = t.fs.Rename(o.p, o.q)
	case opRead:
		if t.walk {
			out, err = walkRead(t.fs, o.p)
		} else {
			out, err = t.fs.ReadFile(o.p)
		}
	case opReadAppend:
		if t.walk {
			out, err = walkRead(t.fs, o.p)
			out = "pre:" + out
		} else {
			var b []byte
			b, err = t.fs.ReadFileAppend(o.p, []byte("pre:"))
			out = string(b)
		}
	}
	if err != nil {
		out += " err=" + err.Error()
	}
	return out
}

// checkIndexInTree asserts that every index entry names a file node
// attached at exactly its key, and that every keyed node in the tree is
// the index entry for its key: the index pins nothing that left the tree.
func checkIndexInTree(t *testing.T, fs *FS, step string) {
	t.Helper()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	for k, n := range fs.index {
		if m, err := fs.lookup(k); err != nil || m != n || n.key != k || n.dir {
			t.Fatalf("%s: index entry %s is not the file node in the tree (lookup %v, key %q)", step, k, err, n.key)
		}
	}
	var rec func(p string, n *node)
	rec = func(p string, n *node) {
		if n.key != "" && (n.key != p || fs.index[p] != n) {
			t.Fatalf("%s: node at %s carries key %q outside the index", step, p, n.key)
		}
		for name, c := range n.children {
			rec(path.Join(p, name), c)
		}
	}
	rec("/", fs.root)
}

// twinPaths is the path universe of the twin test: every path of depth
// one to three over three names, so operations collide often.
var twinPaths = func() []string {
	var ps []string
	names := []string{"a", "b", "c"}
	var rec func(p string, depth int)
	rec = func(p string, depth int) {
		if depth == 3 {
			return
		}
		for _, n := range names {
			ps = append(ps, p+"/"+n)
			rec(p+"/"+n, depth+1)
		}
	}
	rec("", 0)
	return ps
}()

// spell returns p or one of its unclean spellings.
func spell(r *rand.Rand, p string) string {
	if p == "/" {
		return []string{"/", "//", "/.", ""}[r.Intn(4)]
	}
	switch r.Intn(10) {
	case 0:
		return "/" + p // "//a/b"
	case 1:
		return "/." + p // "/./a/b"
	case 2:
		return p + "/"
	case 3:
		return p[1:] // relative
	case 4:
		return strings.ReplaceAll(p, "/", "//")
	}
	return p
}

func randomTwinOp(r *rand.Rand, id int) twinOp {
	pick := func() string {
		if r.Intn(60) == 0 {
			return "/"
		}
		return twinPaths[r.Intn(len(twinPaths))]
	}
	o := twinOp{kind: r.Intn(numOps), p: spell(r, pick()), id: id}
	switch o.kind {
	case opRename:
		o.q = spell(r, pick())
	case opWrite:
		o.q = []string{"x", "y", "bad"}[r.Intn(3)] + fmt.Sprint(id)
		if r.Intn(5) == 0 {
			o.q = "bad"
		}
	case opRead, opReadAppend:
		o.kind = opRead + r.Intn(2)
	}
	return o
}

// scriptedTwinOps covers each detaching operation on an indexed node,
// and a recreate in place, before the random sequence starts.
var scriptedTwinOps = []twinOp{
	{kind: opMkdirAll, p: "/a/b"},
	{kind: opAddFile, p: "/a/b/c", id: 1},
	{kind: opRead, p: "/a/b/c"},
	{kind: opRemove, p: "/a/b/c"},
	{kind: opRead, p: "/a/b/c"},
	{kind: opAddAppend, p: "/a/b/c", id: 2}, // recreate in place
	{kind: opReadAppend, p: "/a/b/c"},
	{kind: opWrite, p: "/a/b/c", q: "w"},
	{kind: opRead, p: "/a/b/c"},
	{kind: opAddFile, p: "/a/c", id: 3},
	{kind: opRead, p: "/a/c"},
	{kind: opRename, p: "/a/c", q: "/a/b/c"}, // onto an indexed file
	{kind: opRead, p: "/a/b/c"},
	{kind: opRead, p: "/a/c"},
	{kind: opRename, p: "/a/b", q: "/b"}, // a directory
	{kind: opRead, p: "/b/c"},
	{kind: opRead, p: "/a/b/c"},
	{kind: opRemoveAll, p: "/b"},
	{kind: opRead, p: "/b/c"},
	{kind: opAddFile, p: "/c", id: 4},
	{kind: opRead, p: "/c"},
	{kind: opRemoveAll, p: "/"},
	{kind: opRead, p: "/c"},
	{kind: opAddDynamic, p: "/c", id: 6},
	{kind: opRead, p: "/c"},
}

// TestIndexedFSTwin runs seeded operation sequences on two filesystems,
// one read and written through the path index and one through the
// walk-only reference, and requires the same content, error text and
// fault hook calls after every operation. The reference runs the hook
// before it walks, and the hook fails every seventh call, so a hook
// error must win over a lookup error on the indexed side too; every
// path the hook sees must be clean. Each step also reads every path of
// the universe in its clean spelling, so any index entry a detaching
// operation forgot to drop is read back, and checks that the index
// holds only nodes still in the tree.
func TestIndexedFSTwin(t *testing.T) {
	const seeds, steps = 40, 150
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		idx, ref := newTwinFS(false), newTwinFS(true)
		ops := append([]twinOp(nil), scriptedTwinOps...)
		for i := 0; i < steps; i++ {
			ops = append(ops, randomTwinOp(r, 100+i))
		}
		maxIndexed := 0
		for i, o := range ops {
			step := fmt.Sprintf("seed %d op %d %+v", seed, i, o)
			if got, want := idx.apply(o), ref.apply(o); got != want {
				t.Fatalf("%s: indexed %q, reference %q", step, got, want)
			}
			for _, p := range twinPaths {
				rd := twinOp{kind: opRead, p: p}
				if got, want := idx.apply(rd), ref.apply(rd); got != want {
					t.Fatalf("%s: read %s: indexed %q, reference %q", step, p, got, want)
				}
			}
			if len(idx.hook) != len(ref.hook) || idx.hook[len(idx.hook)-1] != ref.hook[len(ref.hook)-1] {
				t.Fatalf("%s: fault hook calls diverge", step)
			}
			checkIndexInTree(t, idx.fs, step)
			maxIndexed = max(maxIndexed, len(idx.fs.index))
		}
		for i, h := range idx.hook {
			if h != ref.hook[i] {
				t.Fatalf("seed %d: hook call %d: indexed %q, reference %q", seed, i, h, ref.hook[i])
			}
			if op, p, _ := strings.Cut(h, " "); p != clean(p) || (op != "read" && op != "write") {
				t.Fatalf("seed %d: hook call %q is not a read or write of a clean path", seed, h)
			}
		}
		if maxIndexed == 0 {
			t.Fatalf("seed %d: the index never filled; the twin compared nothing", seed)
		}
	}
}
