"""§8 ablation — hierarchical transfer vs NCCL."""


def test_migration_hierarchy_vs_nccl(benchmark, judge):
    judge("migration", benchmark)


def test_nccl_setup_dominates_small_kv(benchmark, judge):
    judge("migration-single", benchmark)
