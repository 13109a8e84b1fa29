"""The Section III surface syntax: lexer, parser, analysis, interpreter.

Typical use::

    from repro.lang import compile_script
    from repro.lang.figures import FIGURE3_STAR_BROADCAST

    script = compile_script(FIGURE3_STAR_BROADCAST)   # -> ScriptDef
    instance = script.instance(scheduler)
"""

from ..core import ScriptDef
from .analysis import ProgramInfo, analyze
from .ast_nodes import ScriptProgram
from .interp import compile_program
from .lexer import tokenize
from .parser import parse_script
from .printer import format_expr, format_program, format_role


def compile_script(source: str) -> ScriptDef:
    """Parse, check, and compile script-language source to a ScriptDef."""
    program = parse_script(source)
    info = analyze(program)
    return compile_program(program, info)


__all__ = [
    "ProgramInfo",
    "ScriptProgram",
    "analyze",
    "compile_program",
    "compile_script",
    "format_expr",
    "format_program",
    "format_role",
    "parse_script",
    "tokenize",
]
