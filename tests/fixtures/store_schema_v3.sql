CREATE TABLE repositories (
    repository_id TEXT PRIMARY KEY,
    url TEXT NOT NULL,
    local_path TEXT,
    accessible INTEGER NOT NULL DEFAULT 0,
    has_requirements_file INTEGER NOT NULL DEFAULT 0,
    notebook_count INTEGER NOT NULL DEFAULT 0 CHECK (notebook_count >= 0),
    manifest_paths TEXT NOT NULL DEFAULT '[]'
);

CREATE TABLE notebooks (
    notebook_id TEXT PRIMARY KEY,
    repository_id TEXT NOT NULL REFERENCES repositories(repository_id),
    relative_path TEXT NOT NULL,
    kernel_name TEXT,
    nbformat_major INTEGER,
    nbformat_minor INTEGER,
    code_cell_count INTEGER,
    markdown_cell_count INTEGER,
    nondeterministic_pattern_cells INTEGER,
    parse_failed INTEGER NOT NULL DEFAULT 0,
    parse_error TEXT,
    UNIQUE (repository_id, relative_path)
);

CREATE TABLE repository_runs (
    run_id TEXT PRIMARY KEY,
    repository_id TEXT NOT NULL REFERENCES repositories(repository_id),
    invocation_id TEXT NOT NULL,
    started_at TEXT NOT NULL,
    finished_at TEXT CHECK (finished_at IS NULL OR finished_at >= started_at),
    provisioning_status TEXT NOT NULL
        CHECK (provisioning_status IN ('EnvironmentBuilt', 'BuildFailed', 'KernelNotFound', 'NoPythonNotebooks', 'InvalidUrl', 'Pending')),
    status_reason TEXT,
    image_reference TEXT,
    revision TEXT,
    build_phase TEXT
        CHECK (build_phase IS NULL OR provisioning_status = 'BuildFailed'),
    build_duration_s REAL
        CHECK (build_duration_s IS NULL OR build_duration_s >= 0),
    UNIQUE (repository_id, invocation_id)
);

CREATE TABLE notebook_executions (
    notebook_id TEXT NOT NULL REFERENCES notebooks(notebook_id),
    run_id TEXT NOT NULL REFERENCES repository_runs(run_id),
    status TEXT NOT NULL CHECK (status IN ('Success', 'ErroredButCompleted', 'KernelNotFound', 'NotebookNotFound', 'Timeout', 'Skipped')),
    duration_s REAL CHECK (duration_s IS NULL OR duration_s >= 0),
    code_cell_count INTEGER NOT NULL DEFAULT 0,
    markdown_code_ratio REAL,
    errors TEXT NOT NULL DEFAULT '[]',
    error_pairs TEXT NOT NULL DEFAULT '[]',
    executed_notebook_path TEXT,
    PRIMARY KEY (run_id, notebook_id),
    CHECK (status != 'Success'
           OR (errors = '[]' AND executed_notebook_path IS NOT NULL)),
    CHECK (status = 'Skipped' OR duration_s IS NOT NULL),
    CHECK ((errors = '[]') = (error_pairs = '[]'))
);

CREATE TABLE reproducibility_metrics (
    notebook_id TEXT NOT NULL,
    run_id TEXT NOT NULL,
    identical_count INTEGER NOT NULL DEFAULT 0,
    different_count INTEGER NOT NULL DEFAULT 0,
    nondeterministic_count INTEGER NOT NULL DEFAULT 0,
    identical_indices TEXT NOT NULL DEFAULT '[]',
    different_indices TEXT NOT NULL DEFAULT '[]',
    nondeterministic_indices TEXT NOT NULL DEFAULT '[]',
    total_code_cells INTEGER NOT NULL DEFAULT 0,
    score REAL CHECK (score IS NULL OR (score >= 0.0 AND score <= 1.0)),
    structural_mismatch INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, notebook_id),
    FOREIGN KEY (run_id, notebook_id)
        REFERENCES notebook_executions(run_id, notebook_id),
    CHECK (structural_mismatch = 1
           OR identical_count + different_count + nondeterministic_count
              = total_code_cells)
);

CREATE TABLE classification (
    only_row INTEGER PRIMARY KEY CHECK (only_row = 1),
    A_EnvironmentResolved INTEGER NOT NULL CHECK (A_EnvironmentResolved >= 0),
    B_PersistentError INTEGER NOT NULL CHECK (B_PersistentError >= 0),
    C_ReproducibilityDrift INTEGER NOT NULL CHECK (C_ReproducibilityDrift >= 0),
    D_Regression INTEGER NOT NULL CHECK (D_Regression >= 0),
    Unclassified INTEGER NOT NULL CHECK (Unclassified >= 0),
    resolution_rate REAL
        CHECK (resolution_rate IS NULL OR resolution_rate BETWEEN 0 AND 100)
);

CREATE TRIGGER repositories_insert_declassifies AFTER INSERT ON repositories BEGIN DELETE FROM classification; END;

CREATE TRIGGER repositories_update_declassifies AFTER UPDATE ON repositories BEGIN DELETE FROM classification; END;

CREATE TRIGGER repositories_delete_declassifies AFTER DELETE ON repositories BEGIN DELETE FROM classification; END;

CREATE TRIGGER notebooks_insert_declassifies AFTER INSERT ON notebooks BEGIN DELETE FROM classification; END;

CREATE TRIGGER notebooks_update_declassifies AFTER UPDATE ON notebooks BEGIN DELETE FROM classification; END;

CREATE TRIGGER notebooks_delete_declassifies AFTER DELETE ON notebooks BEGIN DELETE FROM classification; END;

CREATE TRIGGER repository_runs_insert_declassifies AFTER INSERT ON repository_runs BEGIN DELETE FROM classification; END;

CREATE TRIGGER repository_runs_update_declassifies AFTER UPDATE ON repository_runs BEGIN DELETE FROM classification; END;

CREATE TRIGGER repository_runs_delete_declassifies AFTER DELETE ON repository_runs BEGIN DELETE FROM classification; END;

CREATE TRIGGER notebook_executions_insert_declassifies AFTER INSERT ON notebook_executions BEGIN DELETE FROM classification; END;

CREATE TRIGGER notebook_executions_update_declassifies AFTER UPDATE ON notebook_executions BEGIN DELETE FROM classification; END;

CREATE TRIGGER notebook_executions_delete_declassifies AFTER DELETE ON notebook_executions BEGIN DELETE FROM classification; END;

CREATE TRIGGER reproducibility_metrics_insert_declassifies AFTER INSERT ON reproducibility_metrics BEGIN DELETE FROM classification; END;

CREATE TRIGGER reproducibility_metrics_update_declassifies AFTER UPDATE ON reproducibility_metrics BEGIN DELETE FROM classification; END;

CREATE TRIGGER reproducibility_metrics_delete_declassifies AFTER DELETE ON reproducibility_metrics BEGIN DELETE FROM classification; END;

PRAGMA user_version = 3;
