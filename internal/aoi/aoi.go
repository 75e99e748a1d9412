// Package aoi defines Flick's Abstract Object Interface: the high-level
// "network contract" produced by IDL front ends. AOI describes interfaces,
// operations, attributes, and exceptions independently of any target
// language, message encoding, or transport.
//
// AOI deliberately represents constructs at the level an IDL speaks of
// them: object methods, attributes, and exceptions are distinct notions
// even though every back end eventually implements them as messages.
package aoi

import (
	"fmt"
	"strings"
)

// Direction classifies an operation parameter as input, output, or both.
type Direction int

const (
	In Direction = iota
	Out
	InOut
)

func (d Direction) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Pos locates a declaration in its IDL source (1-based line and column;
// the zero Pos means the front end recorded no position). Validate uses
// declaration positions to point diagnostics at the offending line of
// IDL rather than at the AOI graph.
type Pos struct {
	File string
	Line int
	Col  int
}

// IsValid reports whether p carries a real source position.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return p.File
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// File is the AOI produced from one IDL source file.
type File struct {
	// Source names the IDL file (or "<input>" when unknown).
	Source string
	// IDL names the source language: "corba", "oncrpc", or "mig".
	IDL string
	// Types holds named type definitions (typedefs, structs, unions,
	// enums) in declaration order.
	Types []*TypeDef
	// Consts holds named constants in declaration order.
	Consts []*ConstDef
	// Interfaces holds interface (or program/version) declarations.
	Interfaces []*Interface
}

// LookupType returns the named type definition, or nil.
func (f *File) LookupType(name string) *TypeDef {
	for _, td := range f.Types {
		if td.Name == name {
			return td
		}
	}
	return nil
}

// LookupInterface returns the named interface, or nil.
func (f *File) LookupInterface(name string) *Interface {
	for _, it := range f.Interfaces {
		if it.Name == name {
			return it
		}
	}
	return nil
}

// TypeDef is a named type definition.
type TypeDef struct {
	Name string
	Type Type
	// Pos is the declaration site (zero when unrecorded).
	Pos Pos
}

// ConstDef is a named constant. Exactly one of Int and Str is meaningful,
// selected by the dynamic type of Type.
type ConstDef struct {
	Name string
	Type Type
	Int  int64
	Str  string
}

// Interface is one interface (CORBA) or one program/version pair (ONC).
type Interface struct {
	// Name is the unqualified interface name.
	Name string
	// Module is the enclosing module scope ("" at global scope). Nested
	// modules are joined with "::".
	Module string
	// ID is the wire identity: a CORBA repository ID, or "prog,vers" for
	// ONC RPC.
	ID string
	// Program and Version carry the ONC RPC numbers (zero for CORBA).
	Program uint32
	Version uint32
	// Parents names inherited interfaces.
	Parents []string
	// Ops, Attrs, and Excepts are the interface members.
	Ops     []*Operation
	Attrs   []*Attribute
	Excepts []*Exception
	// Pos is the declaration site (zero when unrecorded).
	Pos Pos
}

// QualifiedName returns Module::Name, or Name when Module is empty.
func (i *Interface) QualifiedName() string {
	if i.Module == "" {
		return i.Name
	}
	return i.Module + "::" + i.Name
}

// LookupOp returns the named operation, or nil.
func (i *Interface) LookupOp(name string) *Operation {
	for _, op := range i.Ops {
		if op.Name == name {
			return op
		}
	}
	return nil
}

// Operation is one invocable operation of an interface.
type Operation struct {
	Name string
	// Code is the operation discriminator used on the wire: the ONC
	// procedure number, or a dense index assigned by the front end for
	// IDLs (like CORBA) that discriminate by name.
	Code uint32
	// Oneway marks operations with no reply message.
	Oneway bool
	// Idempotent marks operations that are safe to execute more than
	// once (the //flick:idempotent annotation; CORBA attribute getters
	// are idempotent implicitly). The RPC runtime re-sends only
	// idempotent operations after ambiguous failures.
	Idempotent bool
	// Stream marks server-push streaming operations (the //flick:stream
	// annotation): the request travels once, then the server pushes a
	// sequence of Result-typed chunks under a credit window instead of a
	// single reply. Stream operations take only in parameters, return a
	// non-void result (the chunk type), and raise no exceptions.
	Stream bool
	Params []Param
	// Result is the return type; Void for none.
	Result Type
	// Raises names user exceptions the operation may raise.
	Raises []string
	// Pos is the declaration site (zero when unrecorded).
	Pos Pos
}

// Param is one operation parameter.
type Param struct {
	Name string
	Dir  Direction
	Type Type
}

// Attribute is a CORBA attribute; front ends for IDLs without attributes
// never produce them. Presentation generators expand each attribute into
// implicit get (and, unless ReadOnly, set) operations.
type Attribute struct {
	Name     string
	Type     Type
	ReadOnly bool
}

// Exception is a named user exception with zero or more member fields.
type Exception struct {
	Name   string
	ID     string
	Fields []Field
}

// Type is the interface satisfied by every AOI type node.
type Type interface {
	aoiType()
	// String renders an IDL-ish spelling, used in diagnostics.
	String() string
}

// PrimKind enumerates the IDL primitive types.
type PrimKind int

const (
	Void PrimKind = iota
	Boolean
	Octet
	Char
	Short
	UShort
	Long
	ULong
	LongLong
	ULongLong
	Float
	Double
)

var primNames = [...]string{
	Void: "void", Boolean: "boolean", Octet: "octet", Char: "char",
	Short: "short", UShort: "unsigned short", Long: "long",
	ULong: "unsigned long", LongLong: "long long",
	ULongLong: "unsigned long long", Float: "float", Double: "double",
}

func (k PrimKind) String() string {
	if int(k) < len(primNames) {
		return primNames[k]
	}
	return fmt.Sprintf("PrimKind(%d)", int(k))
}

// Primitive is a primitive IDL type.
type Primitive struct{ Kind PrimKind }

// String is a (possibly bounded) string type; Bound==0 means unbounded.
type String struct{ Bound uint32 }

// Sequence is a variable-length sequence; Bound==0 means unbounded.
type Sequence struct {
	Elem  Type
	Bound uint32
}

// Array is a fixed-length array.
type Array struct {
	Elem   Type
	Length uint32
}

// Field is one member of a struct, exception, or union arm.
type Field struct {
	Name string
	Type Type
}

// Struct is a structure type. Name may be empty for anonymous structs.
type Struct struct {
	Name   string
	Fields []Field
}

// UnionCase is one arm of a discriminated union.
type UnionCase struct {
	// Labels holds the discriminator values selecting this arm; empty
	// with IsDefault set for the default arm.
	Labels    []int64
	IsDefault bool
	Field     Field
}

// Union is a discriminated union.
type Union struct {
	Name    string
	Discrim Type
	Cases   []UnionCase
}

// HasDefault reports whether the union declares a default arm.
func (u *Union) HasDefault() bool {
	for _, c := range u.Cases {
		if c.IsDefault {
			return true
		}
	}
	return false
}

// Enum is an enumeration; member i has value Values[i] (ONC RPC allows
// explicit values; CORBA enums are dense from zero).
type Enum struct {
	Name    string
	Members []string
	Values  []int64
}

// NamedRef is a reference to a named type definition. Def is resolved by
// the front end and is never nil in a validated File.
type NamedRef struct {
	Name string
	Def  Type
}

// Optional is ONC RPC "optional data" (a `*` pointer): either absent or
// one value. CORBA has no equivalent construct.
type Optional struct{ Elem Type }

// InterfaceRef is an object reference type (CORBA interface used as a
// type).
type InterfaceRef struct{ Name string }

func (*Primitive) aoiType()    {}
func (*String) aoiType()       {}
func (*Sequence) aoiType()     {}
func (*Array) aoiType()        {}
func (*Struct) aoiType()       {}
func (*Union) aoiType()        {}
func (*Enum) aoiType()         {}
func (*NamedRef) aoiType()     {}
func (*Optional) aoiType()     {}
func (*InterfaceRef) aoiType() {}

func (t *Primitive) String() string { return t.Kind.String() }

func (t *String) String() string {
	if t.Bound == 0 {
		return "string"
	}
	return fmt.Sprintf("string<%d>", t.Bound)
}

func (t *Sequence) String() string {
	if t.Bound == 0 {
		return fmt.Sprintf("sequence<%s>", t.Elem)
	}
	return fmt.Sprintf("sequence<%s,%d>", t.Elem, t.Bound)
}

func (t *Array) String() string { return fmt.Sprintf("%s[%d]", t.Elem, t.Length) }

func (t *Struct) String() string {
	if t.Name != "" {
		return "struct " + t.Name
	}
	var b strings.Builder
	b.WriteString("struct {")
	for i, f := range t.Fields {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s %s", f.Type, f.Name)
	}
	b.WriteString("}")
	return b.String()
}

func (t *Union) String() string {
	if t.Name != "" {
		return "union " + t.Name
	}
	return "union"
}

func (t *Enum) String() string {
	if t.Name != "" {
		return "enum " + t.Name
	}
	return "enum {" + strings.Join(t.Members, ", ") + "}"
}

func (t *NamedRef) String() string     { return t.Name }
func (t *Optional) String() string     { return t.Elem.String() + "*" }
func (t *InterfaceRef) String() string { return "interface " + t.Name }

// Resolve follows NamedRef chains to the underlying definition.
func Resolve(t Type) Type {
	for {
		ref, ok := t.(*NamedRef)
		if !ok {
			return t
		}
		t = ref.Def
	}
}

// IsVoid reports whether t is the void primitive.
func IsVoid(t Type) bool {
	p, ok := Resolve(t).(*Primitive)
	return ok && p.Kind == Void
}
