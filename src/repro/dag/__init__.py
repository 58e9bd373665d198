"""Critical-path, structural analyses and exporters over compiled programs."""

from repro.dag.critical_path import critical_path_length, critical_path_tasks

__all__ = [
    "critical_path_length",
    "critical_path_tasks",
]
