"""Whole-program model for the lotus-lint flow tier.

The per-file rules in :mod:`repro.analysis` see one module at a time;
the flow tier parses every project module up front into a
:class:`ProjectModel` — modules, classes, functions, dataclass fields
and import aliases — that the call graph and the interprocedural rules
query by qualified name.

Name resolution extends :class:`repro.analysis.rules.ImportTracker`
with *relative* imports: ``from .updates import WordPopulationStore``
inside ``repro.bargossip.simulator`` resolves to
``repro.bargossip.updates.WordPopulationStore``, which is what lets a
call site in one module find a callee defined in another.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..rules import ImportTracker

__all__ = [
    "ClassModel",
    "DataclassField",
    "FunctionModel",
    "ModuleImportTracker",
    "ModuleModel",
    "ProjectModel",
    "module_name_of",
]

_SOURCE_ROOTS = ("src",)

_DATACLASS_DECORATORS = ("dataclass",)


def module_name_of(rel_path: str) -> Optional[str]:
    """Dotted module name for a repo-relative path.

    ``src/repro/bargossip/updates.py`` → ``repro.bargossip.updates``;
    ``src/repro/core/__init__.py`` → ``repro.core``.  Returns ``None``
    for paths outside a recognised source root.
    """
    if not rel_path.endswith(".py"):
        return None
    parts = rel_path[: -len(".py")].split("/")
    if parts and parts[0] in _SOURCE_ROOTS:
        parts = parts[1:]
    if not parts:
        return None
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts or not all(part.isidentifier() for part in parts):
        return None
    return ".".join(parts)


class ModuleImportTracker(ImportTracker):
    """Import tracker that also resolves relative imports.

    The base tracker deliberately drops relative imports (stdlib rules
    never need them); the flow tier needs them to stitch intra-package
    call edges.  ``module`` is the importing module's dotted name.
    """

    def __init__(self, module: str) -> None:
        super().__init__()
        self.module = module

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not node.level:
            super().visit_ImportFrom(node)
            return
        # `from .x import y` at level 1 anchors at the parent package;
        # each extra dot strips one more component.
        package_parts = self.module.split(".")
        anchor = package_parts[: len(package_parts) - node.level]
        base = ".".join(anchor + ([node.module] if node.module else []))
        if not base:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.aliases[local] = f"{base}.{alias.name}"


@dataclass
class DataclassField:
    """One annotated field of a project dataclass."""

    name: str
    annotation: ast.expr
    line: int
    col: int
    #: The default value expression, ``None`` when the field has none.
    default: Optional[ast.expr] = None


@dataclass
class FunctionModel:
    """One function or method, with enough context to analyze its body."""

    #: Qualified name, e.g. ``repro.bargossip.simulator.InteractionEngine.run_exchanges_batched``.
    qualname: str
    name: str
    module: str
    rel_path: str
    node: ast.FunctionDef
    #: Enclosing class name, or ``None`` for module-level functions.
    class_name: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def param_names(self) -> List[str]:
        """Positional parameter names, ``self``/``cls`` included."""
        args = self.node.args
        names = [a.arg for a in getattr(args, "posonlyargs", [])]
        names.extend(a.arg for a in args.args)
        return names

    def positional_params(self) -> List[str]:
        """Parameter names as seen by a bound (method) call."""
        names = self.param_names()
        if self.is_method and names and names[0] in ("self", "cls"):
            return names[1:]
        return names

    def keyword_params(self) -> List[str]:
        names = self.positional_params()
        names.extend(a.arg for a in self.node.args.kwonlyargs)
        return names


@dataclass
class ClassModel:
    """One class definition, with its methods and dataclass fields."""

    qualname: str
    name: str
    module: str
    rel_path: str
    node: ast.ClassDef
    methods: Dict[str, FunctionModel] = field(default_factory=dict)
    is_dataclass: bool = False
    fields: List[DataclassField] = field(default_factory=list)
    base_names: List[str] = field(default_factory=list)


@dataclass
class ModuleModel:
    """One parsed project module."""

    name: str
    rel_path: str
    tree: ast.Module
    source: str
    imports: ModuleImportTracker
    functions: Dict[str, FunctionModel] = field(default_factory=dict)
    classes: Dict[str, ClassModel] = field(default_factory=dict)

    def snippet(self, line: int) -> str:
        lines = self.source.splitlines()
        if 1 <= line <= len(lines):
            return lines[line - 1].strip()
        return ""


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in _DATACLASS_DECORATORS:
            return True
        if isinstance(target, ast.Name) and target.id in _DATACLASS_DECORATORS:
            return True
    return False


class ProjectModel:
    """Every parsed module of the project, indexed for name lookup."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleModel] = {}
        #: qualname -> FunctionModel for every function and method.
        self.functions: Dict[str, FunctionModel] = {}
        #: qualname -> ClassModel.
        self.classes: Dict[str, ClassModel] = {}
        #: bare name -> qualnames (fallback resolution).
        self.functions_by_name: Dict[str, List[str]] = {}
        self.classes_by_name: Dict[str, List[str]] = {}
        #: files that failed to parse: rel_path -> error message.
        self.parse_errors: Dict[str, str] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, sources: Dict[str, str]) -> "ProjectModel":
        """Parse ``{rel_path: source}`` into a project model.

        Unparseable files are recorded in :attr:`parse_errors` and
        skipped — the per-file tier already reports LNT002 for them.
        """
        project = cls()
        for rel_path in sorted(sources):
            module_name = module_name_of(rel_path)
            if module_name is None:
                continue
            source = sources[rel_path]
            try:
                tree = ast.parse(source)
            except SyntaxError as error:
                project.parse_errors[rel_path] = str(error)
                continue
            project._add_module(module_name, rel_path, tree, source)
        return project

    def _add_module(
        self, module_name: str, rel_path: str, tree: ast.Module, source: str
    ) -> None:
        tracker = ModuleImportTracker(module_name)
        tracker.visit(tree)
        module = ModuleModel(
            name=module_name,
            rel_path=rel_path,
            tree=tree,
            source=source,
            imports=tracker,
        )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)
        self.modules[module_name] = module

    def _add_function(
        self,
        module: ModuleModel,
        node: ast.FunctionDef,
        class_name: Optional[str],
        class_model: Optional[ClassModel] = None,
    ) -> None:
        scope = f"{module.name}.{class_name}" if class_name else module.name
        model = FunctionModel(
            qualname=f"{scope}.{node.name}",
            name=node.name,
            module=module.name,
            rel_path=module.rel_path,
            node=node,
            class_name=class_name,
        )
        self.functions[model.qualname] = model
        self.functions_by_name.setdefault(node.name, []).append(model.qualname)
        if class_model is not None:
            class_model.methods[node.name] = model
        else:
            module.functions[node.name] = model

    def _add_class(self, module: ModuleModel, node: ast.ClassDef) -> None:
        model = ClassModel(
            qualname=f"{module.name}.{node.name}",
            name=node.name,
            module=module.name,
            rel_path=module.rel_path,
            node=node,
            is_dataclass=_is_dataclass_decorated(node),
            base_names=[
                base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                for base in node.bases
            ],
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, class_name=node.name, class_model=model)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if model.is_dataclass:
                    model.fields.append(
                        DataclassField(
                            name=stmt.target.id,
                            annotation=stmt.annotation,
                            line=stmt.lineno,
                            col=stmt.col_offset,
                            default=stmt.value,
                        )
                    )
        module.classes[node.name] = model
        self.classes[model.qualname] = model
        self.classes_by_name.setdefault(node.name, []).append(model.qualname)

    # -- lookup --------------------------------------------------------

    def resolve_qualname(self, module: ModuleModel, name: str) -> Optional[str]:
        """Resolve a bare or dotted name used inside ``module`` to a
        project function/class qualname, via local defs then imports."""
        head, _, rest = name.partition(".")
        if not rest:
            if name in module.functions:
                return module.functions[name].qualname
            if name in module.classes:
                return module.classes[name].qualname
        target = module.imports.aliases.get(head)
        if target is not None:
            dotted = f"{target}.{rest}" if rest else target
            if dotted in self.functions or dotted in self.classes:
                return dotted
            # `from . import updates` then `updates.word_popcounts`.
            if dotted in self.modules and not rest:
                return None
        return None

    def unique_class(self, name: str) -> Optional[ClassModel]:
        qualnames = self.classes_by_name.get(name, [])
        if len(qualnames) == 1:
            return self.classes[qualnames[0]]
        return None

    def functions_named(self, name: str) -> List[FunctionModel]:
        return [self.functions[q] for q in self.functions_by_name.get(name, [])]

    def spec_classes(self, suffixes: Tuple[str, ...]) -> List[ClassModel]:
        """Dataclasses matching the task-spec naming contract."""
        matched = [
            model
            for model in self.classes.values()
            if model.is_dataclass and model.name.endswith(suffixes)
        ]
        return sorted(matched, key=lambda m: m.qualname)
