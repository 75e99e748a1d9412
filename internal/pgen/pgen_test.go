package pgen

import (
	"strings"
	"testing"

	"flick/internal/aoi"
	"flick/internal/frontend/corbaidl"
	"flick/internal/frontend/oncrpc"
	"flick/internal/mint"
	"flick/internal/pres"
	"flick/internal/presc"
)

const testIDL = `
	interface Test {
		struct point { long x; long y; };
		struct rect  { point min; point max; };
		struct dir_entry {
			string<255> name;
			long info[30];
		};
		exception NotFound { long code; };
		typedef sequence<long> int_seq;

		void send_ints(in int_seq v);
		rect bounds(in long which, out long count) raises (NotFound);
		oneway void ping(in long nonce);
	};
`

func goPresFile(t *testing.T, side presc.Side) *presc.File {
	t.Helper()
	f, err := corbaidl.Parse("test.idl", testIDL)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pf, err := GenerateGo(f, side)
	if err != nil {
		t.Fatalf("GenerateGo: %v", err)
	}
	return pf
}

func TestGoNames(t *testing.T) {
	tests := []struct{ in, want string }{
		{"dir_entry", "DirEntry"},
		{"Test::dir_entry", "TestDirEntry"},
		{"x", "X"},
		{"send_ints", "SendInts"},
		{"_get_balance", "GetBalance"},
		{"", "X"},
	}
	for _, tt := range tests {
		if got := GoName(tt.in); got != tt.want {
			t.Errorf("GoName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
	if got := CName("Post::Office"); got != "Post_Office" {
		t.Errorf("CName = %q", got)
	}
}

func TestMintConversion(t *testing.T) {
	b := NewMintBuilder()
	tests := []struct {
		in   aoi.Type
		want mint.Type
	}{
		{&aoi.Primitive{Kind: aoi.Long}, mint.I32()},
		{&aoi.Primitive{Kind: aoi.ULongLong}, mint.U64()},
		{&aoi.Primitive{Kind: aoi.Boolean}, mint.Bool()},
		{&aoi.Primitive{Kind: aoi.Octet}, mint.U8()},
		{&aoi.Primitive{Kind: aoi.Double}, mint.F64()},
		{&aoi.String{Bound: 10}, mint.NewString(10)},
		{&aoi.Sequence{Elem: &aoi.Primitive{Kind: aoi.Long}}, mint.NewSeq(mint.I32(), 0)},
		{&aoi.Array{Elem: &aoi.Primitive{Kind: aoi.Octet}, Length: 16}, mint.NewFixed(mint.U8(), 16)},
		{&aoi.Enum{Name: "e", Members: []string{"A"}, Values: []int64{0}}, mint.U32()},
	}
	for _, tt := range tests {
		got := b.Convert(tt.in)
		if !mint.Equal(got, tt.want) {
			t.Errorf("Convert(%s) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestMintOptionalShape(t *testing.T) {
	b := NewMintBuilder()
	got := b.Convert(&aoi.Optional{Elem: &aoi.Primitive{Kind: aoi.Long}})
	u, ok := got.(*mint.Union)
	if !ok {
		t.Fatalf("optional = %T", got)
	}
	if len(u.Cases) != 2 {
		t.Fatalf("cases = %d", len(u.Cases))
	}
	if _, isBool := u.Discrim.(*mint.Scalar); !isBool {
		t.Errorf("discrim = %s", u.Discrim)
	}
}

func TestMintRecursion(t *testing.T) {
	// struct node { long v; node *next; }
	node := &aoi.Struct{Name: "node"}
	node.Fields = []aoi.Field{
		{Name: "v", Type: &aoi.Primitive{Kind: aoi.Long}},
		{Name: "next", Type: &aoi.Optional{Elem: node}},
	}
	b := NewMintBuilder()
	m := b.Convert(node).(*mint.Struct)
	next := m.Slots[1].Type.(*mint.Union)
	inner := mint.Deref(next.Cases[1].Type)
	if inner != mint.Type(m) {
		t.Errorf("recursion not tied back: %v vs %v", inner, m)
	}
	// Same conversion twice shares the memo.
	if b.Convert(node) != mint.Type(m) {
		t.Error("memoization failed")
	}
}

func TestBuildRequestReply(t *testing.T) {
	f, err := corbaidl.Parse("test.idl", testIDL)
	if err != nil {
		t.Fatal(err)
	}
	it := f.LookupInterface("Test")
	b := NewMintBuilder()
	op := it.LookupOp("bounds")
	req := b.BuildRequest(it.Name, op)
	if len(req.Slots) != 1 || req.Slots[0].Name != "which" {
		t.Fatalf("request slots = %+v", req.Slots)
	}
	rep := b.BuildReply(it.Name, op, it.Excepts)
	if len(rep.Cases) != 2 {
		t.Fatalf("reply cases = %d (ok + NotFound)", len(rep.Cases))
	}
	okCase := rep.Cases[0].Type.(*mint.Struct)
	if len(okCase.Slots) != 2 || okCase.Slots[0].Name != "return" || okCase.Slots[1].Name != "count" {
		t.Fatalf("ok slots = %+v", okCase.Slots)
	}
	exCase := rep.Cases[1].Type.(*mint.Struct)
	if len(exCase.Slots) != 1 || exCase.Slots[0].Name != "code" {
		t.Fatalf("exception slots = %+v", exCase.Slots)
	}
}

func TestGoDecls(t *testing.T) {
	pf := goPresFile(t, presc.Client)
	src := pf.Decls.(string)
	for _, frag := range []string{
		"type TestPoint struct {",
		"X int32",
		"type TestRect struct {",
		"Min TestPoint",
		"type TestDirEntry struct {",
		"Name string",
		"Info [30]int32",
		"type TestNotFound struct {",
		"func (e *TestNotFound) Error() string",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("decls missing %q:\n%s", frag, src)
		}
	}
}

func TestGoStubs(t *testing.T) {
	pf := goPresFile(t, presc.Client)
	if len(pf.Stubs) != 3 {
		t.Fatalf("stubs = %d", len(pf.Stubs))
	}
	send := pf.Stubs[0]
	if send.Name != "Test_SendInts" || send.Kind != presc.ClientCall {
		t.Errorf("stub = %+v", send)
	}
	if send.OpCode != 0 {
		t.Errorf("code = %d", send.OpCode)
	}
	bounds := pf.Stubs[1]
	if bounds.Result == nil || bounds.Result.CType != "TestRect" {
		t.Errorf("bounds result = %+v", bounds.Result)
	}
	if got := bounds.CDecl.(string); !strings.Contains(got, "Bounds(which int32) (ret TestRect, count int32, err error)") {
		t.Errorf("signature = %q", got)
	}
	if len(bounds.ExceptionNames) != 1 || bounds.ExceptionNames[0] != "NotFound" {
		t.Errorf("exceptions = %v", bounds.ExceptionNames)
	}
	ping := pf.Stubs[2]
	if !ping.Oneway || ping.Kind != presc.SendOnly || ping.Reply != nil {
		t.Errorf("ping = %+v", ping)
	}
	// Request params present the right PRES kinds.
	reqs := send.RequestParams()
	if len(reqs) != 1 {
		t.Fatalf("request params = %d", len(reqs))
	}
	if reqs[0].Request.Kind != pres.CountedKind {
		t.Errorf("v kind = %v", reqs[0].Request.Kind)
	}
}

func TestGoServerSide(t *testing.T) {
	pf := goPresFile(t, presc.Server)
	for _, s := range pf.Stubs {
		if s.Oneway {
			continue
		}
		if s.Kind != presc.ServerWork {
			t.Errorf("stub %s kind = %v", s.Name, s.Kind)
		}
	}
}

func TestEffectiveOps(t *testing.T) {
	f, err := corbaidl.Parse("attr.idl", `
		interface Account {
			readonly attribute long balance;
			attribute string owner;
			void close();
		};
	`)
	if err != nil {
		t.Fatal(err)
	}
	ops := EffectiveOps(f.LookupInterface("Account"))
	var names []string
	for _, op := range ops {
		names = append(names, op.Name)
	}
	want := []string{"close", "_get_balance", "_get_owner", "_set_owner"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("ops = %v, want %v", names, want)
	}
	// Codes must be distinct and continue after declared ops.
	seen := map[uint32]bool{}
	for _, op := range ops {
		if seen[op.Code] {
			t.Errorf("duplicate code %d", op.Code)
		}
		seen[op.Code] = true
	}
	if ops[3].Params[0].Dir != aoi.In {
		t.Error("_set_ param should be in")
	}
}

func TestGoPresentationOfONC(t *testing.T) {
	// The Go presentation accepts AOI from the ONC front end too —
	// Flick's presentation generators are IDL-independent.
	f, err := oncrpc.Parse("list.x", `
		struct intlist {
			int value;
			intlist *next;
		};
		program LIST {
			version V1 {
				intlist *reverse(intlist *) = 1;
			} = 1;
		} = 0x20000077;
	`)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := GenerateGo(f, presc.Client)
	if err != nil {
		t.Fatalf("GenerateGo: %v", err)
	}
	src := pf.Decls.(string)
	if !strings.Contains(src, "Next  *Intlist") {
		t.Errorf("recursive decl missing:\n%s", src)
	}
	stub := pf.Stubs[0]
	p := stub.Params[0]
	if p.Request.Kind != pres.OptPtrKind {
		t.Errorf("param kind = %v", p.Request.Kind)
	}
	// The PRES graph must be cyclic (list node refers to itself).
	inner := p.Request.Elem().Resolve()
	if inner.Kind != pres.StructKind {
		t.Fatalf("inner = %v", inner.Kind)
	}
	back := inner.Children[1].Resolve()
	if back.Kind != pres.OptPtrKind {
		t.Errorf("back = %v", back.Kind)
	}
}

func TestGoKeywordParams(t *testing.T) {
	if goParamName("type") != "type_" || goParamName("msg") != "msg" {
		t.Error("keyword munging wrong")
	}
}
