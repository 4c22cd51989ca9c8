"""Closed-loop control: commands, use cases, epochs, rollback and reports."""
from .commands import Command, CommandLog, validate_command
from .runner import ClosedLoop, KpiSnapshot, LoopReport, run_closed_loop
from .usecases import USE_CASES, UseCase, rollback_if_worse

__all__ = ["Command", "CommandLog", "validate_command", "ClosedLoop",
           "KpiSnapshot", "LoopReport", "USE_CASES", "UseCase",
           "rollback_if_worse", "run_closed_loop"]
