"""Schema: class definition, hierarchy, inheritance resolution."""

import pytest

from repro.core.attribute import AttributeDef
from repro.core.method import MethodDef
from repro.core.schema import Schema
from repro.errors import (
    AttributeNotFoundError,
    ClassNotFoundError,
    DuplicateClassError,
    InheritanceConflictError,
    MethodNotFoundError,
    SchemaError,
)


@pytest.fixture
def schema():
    return Schema()


class TestDefinition:
    def test_builtins_present(self, schema):
        for name in ("Object", "Any", "Integer", "Float", "String", "Boolean", "Bytes"):
            assert schema.has_class(name)

    def test_define_simple_class(self, schema):
        schema.define_class("Vehicle", attributes=[AttributeDef("weight", "Integer")])
        assert schema.has_class("Vehicle")
        assert schema.get_class("Vehicle").superclasses == ["Object"]

    def test_duplicate_class_rejected(self, schema):
        schema.define_class("A")
        with pytest.raises(DuplicateClassError):
            schema.define_class("A")

    def test_unknown_superclass_rejected(self, schema):
        with pytest.raises(ClassNotFoundError):
            schema.define_class("A", superclasses=("Ghost",))

    def test_cannot_subclass_primitive(self, schema):
        with pytest.raises(SchemaError):
            schema.define_class("FancyInt", superclasses=("Integer",))

    def test_empty_superclasses_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.define_class("A", superclasses=())

    def test_invalid_class_name(self, schema):
        with pytest.raises(SchemaError):
            schema.define_class("not a name")

    def test_duplicate_superclasses_deduped(self, schema):
        schema.define_class("A")
        cls = schema.define_class("B", superclasses=("A", "A"))
        assert cls.superclasses == ["A"]

    def test_user_classes_excludes_builtins(self, schema):
        schema.define_class("A")
        names = [c.name for c in schema.user_classes()]
        assert names == ["A"]


class TestHierarchy:
    @pytest.fixture
    def diamond(self, schema):
        schema.define_class("A", attributes=[AttributeDef("x", "Integer")])
        schema.define_class("B", superclasses=("A",), attributes=[AttributeDef("y", "Integer")])
        schema.define_class("C", superclasses=("A",), attributes=[AttributeDef("z", "Integer")])
        schema.define_class("D", superclasses=("B", "C"))
        return schema

    def test_mro_linear(self, diamond):
        assert diamond.mro("B") == ["B", "A", "Object"]

    def test_mro_diamond(self, diamond):
        assert diamond.mro("D") == ["D", "B", "C", "A", "Object"]

    def test_is_subclass(self, diamond):
        assert diamond.is_subclass("D", "A")
        assert diamond.is_subclass("D", "D")
        assert not diamond.is_subclass("A", "D")

    def test_any_is_universal_ancestor(self, diamond):
        assert diamond.is_subclass("D", "Any")

    def test_subclasses_transitive(self, diamond):
        assert diamond.subclasses("A") == ["B", "C", "D"]

    def test_direct_subclasses(self, diamond):
        assert diamond.direct_subclasses("A") == ["B", "C"]

    def test_hierarchy_of(self, diamond):
        assert diamond.hierarchy_of("A") == ["A", "B", "C", "D"]
        assert diamond.hierarchy_of("D") == ["D"]

    def test_superclasses(self, diamond):
        assert diamond.superclasses("D") == ["B", "C", "A", "Object"]
        assert diamond.superclasses("D", transitive=False) == ["B", "C"]

    def test_unknown_class_raises(self, schema):
        with pytest.raises(ClassNotFoundError):
            schema.mro("Nope")

    def test_inconsistent_diamond_rejected_at_definition(self, schema):
        # Local precedence order conflict: E says (B, C), F says (C, B),
        # G cannot linearize both.
        schema.define_class("B")
        schema.define_class("C")
        schema.define_class("E", superclasses=("B", "C"))
        schema.define_class("F", superclasses=("C", "B"))
        with pytest.raises(InheritanceConflictError):
            schema.define_class("G", superclasses=("E", "F"))
        # The failed definition must not leave a half-registered class.
        assert not schema.has_class("G")


class TestInheritedMembers:
    @pytest.fixture
    def shapes(self, schema):
        schema.define_class(
            "Shape",
            attributes=[
                AttributeDef("center", "String"),
                AttributeDef("bbox", "String"),
            ],
            methods=[MethodDef("display", lambda recv: "shape")],
        )
        schema.define_class(
            "Triangle",
            superclasses=("Shape",),
            attributes=[AttributeDef("vertices", "String")],
            methods=[MethodDef("display", lambda recv: "triangle")],
        )
        return schema

    def test_attributes_inherited(self, shapes):
        attrs = shapes.attributes("Triangle")
        assert set(attrs) == {"center", "bbox", "vertices"}

    def test_attribute_provenance(self, shapes):
        assert shapes.attribute("Triangle", "center").defined_in == "Shape"
        assert shapes.attribute("Triangle", "vertices").defined_in == "Triangle"

    def test_method_redefinition_shadows(self, shapes):
        meth = shapes.resolve_method("Triangle", "display")
        assert meth.invoke(None) == "triangle"

    def test_method_inherited(self, shapes):
        shapes.define_class("Circle", superclasses=("Shape",))
        assert shapes.resolve_method("Circle", "display").invoke(None) == "shape"

    def test_resolve_method_above(self, shapes):
        meth = shapes.resolve_method_above("Triangle", "display", "Triangle")
        assert meth.invoke(None) == "shape"

    def test_missing_method_raises(self, shapes):
        with pytest.raises(MethodNotFoundError):
            shapes.resolve_method("Shape", "rotate")

    def test_missing_attribute_raises(self, shapes):
        with pytest.raises(AttributeNotFoundError):
            shapes.attribute("Shape", "ghost")

    def test_attribute_redefinition_narrows(self, schema):
        schema.define_class("Company")
        schema.define_class("AutoCompany", superclasses=("Company",))
        schema.define_class(
            "Vehicle", attributes=[AttributeDef("manufacturer", "Company")]
        )
        schema.define_class(
            "Automobile",
            superclasses=("Vehicle",),
            attributes=[AttributeDef("manufacturer", "AutoCompany")],
        )
        assert schema.attribute("Automobile", "manufacturer").domain == "AutoCompany"
        assert schema.attribute("Vehicle", "manufacturer").domain == "Company"


class TestDynamicExtension:
    def test_new_subclass_after_the_fact(self, schema):
        schema.define_class("A", attributes=[AttributeDef("x", "Integer")])
        before = schema.version
        schema.define_class("B", superclasses=("A",))
        assert schema.version > before
        assert "x" in schema.attributes("B")

    def test_caches_invalidated_on_definition(self, schema):
        schema.define_class("A")
        assert schema.hierarchy_of("A") == ["A"]
        schema.define_class("B", superclasses=("A",))
        assert schema.hierarchy_of("A") == ["A", "B"]


class TestCatalogRoundtrip:
    def test_to_from_dict(self, schema):
        schema.define_class(
            "Company",
            attributes=[
                AttributeDef("name", "String", required=True),
                AttributeDef("tags", "String", multi=True),
            ],
        )
        schema.define_class("AutoCompany", superclasses=("Company",))
        schema.define_class(
            "Vehicle",
            attributes=[
                AttributeDef("maker", "Company"),
                AttributeDef(
                    "engine", "Any", composite=True, exclusive=True, dependent=True
                ),
            ],
            abstract=False,
        )
        rebuilt = Schema.from_dict(schema.to_dict())
        assert rebuilt.mro("AutoCompany") == ["AutoCompany", "Company", "Object"]
        attr = rebuilt.attribute("Vehicle", "engine")
        assert attr.composite and attr.exclusive and attr.dependent
        assert rebuilt.attribute("Company", "tags").multi

    def test_from_dict_order_independent(self, schema):
        schema.define_class("A")
        schema.define_class("B", superclasses=("A",))
        data = schema.to_dict()
        data["classes"].reverse()  # B before A
        rebuilt = Schema.from_dict(data)
        assert rebuilt.is_subclass("B", "A")

    def test_methods_rebound_after_load(self, schema):
        schema.define_class("A", methods=[MethodDef("ping", lambda recv: "pong")])
        rebuilt = Schema.from_dict(schema.to_dict())
        with pytest.raises(MethodNotFoundError):
            rebuilt.resolve_method("A", "ping")
        rebuilt.bind_methods("A", [MethodDef("ping", lambda recv: "pong")])
        assert rebuilt.resolve_method("A", "ping").invoke(None) == "pong"
