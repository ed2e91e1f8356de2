#!/bin/sh
# Stand-in for the container runtime CLI, answering the verbs nbrepro's
# DockerCli issues: version, build, images, ps, rm, rmi, run and cp.
#
# No container runs. "build" records the build context of an image; "run"
# looks up the executed notebook planted for it and records where that
# notebook sits in the container; "cp" copies it out. Each image and each
# container is one state file, so parallel workers never rewrite a shared
# file. A removed container or image keeps its file, truncated to zero
# bytes, which spares a process per removal.
#
# Environment:
#   BENCH_STUB_STATE          directory with empty images/ and containers/
#                             subdirectories for the state files (required)
#   BENCH_STUB_EXECUTED       planted artifacts, <repository_id>/<notebook path>
#   BENCH_STUB_DELAY_S        seconds added to every call (round trip)
#   BENCH_STUB_RUN_DELAY_S    seconds added to "run" (container start)
#   BENCH_STUB_BUILD_DELAY_S  seconds added to "build"
#
# Deterministic failures: a synthesized manifest naming the unresolvable
# requirement fails the build with "No matching distribution found"; a
# notebook with a "<path>.nokernel" marker fails with NoSuchKernel until a
# kernel is forced; a notebook without a planted artifact fails the way the
# converter fails on a file that is not JSON.

set -u

state=${BENCH_STUB_STATE:?BENCH_STUB_STATE is not set}
executed=${BENCH_STUB_EXECUTED:-}
unresolvable=nbrepro-bench-unresolvable

pause() {
    case $1 in
        ''|0|0.0|0.00|0.000) ;;
        *) sleep "$1" ;;
    esac
}

pause "${BENCH_STUB_DELAY_S:-0}"
verb=${1:-}
[ $# -gt 0 ] && shift

case $verb in
version)
    echo "stub-sh"
    ;;

build)
    # build --no-cache -t TAG -f DOCKERFILE CONTEXT
    tag='' context=''
    while [ $# -gt 0 ]; do
        case $1 in
            -t|-f) [ "$1" = -t ] && tag=$2; shift 2 ;;
            --no-cache) shift ;;
            *) context=$1; shift ;;
        esac
    done
    pause "${BENCH_STUB_BUILD_DELAY_S:-0}"
    echo "Step 1/9 : FROM python:3.10-slim"
    if grep -q "^$unresolvable" "$context/requirements.synthesized.txt" 2>/dev/null; then
        echo "ERROR: Could not find a version that satisfies the requirement $unresolvable" >&2
        echo "ERROR: No matching distribution found for $unresolvable" >&2
        exit 1
    fi
    # tag is repro/<repository_id>:<run_id>
    rest=${tag#*/}
    printf '%s\n' "$context" > "$state/images/${rest%%:*}.${rest#*:}"
    echo "Successfully tagged $tag"
    ;;

images)
    # images --format FORMAT REPOSITORY
    repository=$3
    for file in "$state/images/${repository#*/}".*; do
        [ -s "$file" ] || continue
        echo "$repository:${file##*.}"
    done
    ;;

ps)
    # ps -aq --filter label=KEY=VALUE
    wanted=${3#label=}
    for file in "$state/containers"/*; do
        [ -s "$file" ] || continue
        read -r label < "$file"
        [ "$label" = "$wanted" ] && echo "${file##*/}"
    done
    ;;

rm|rmi)
    # rm -f NAME / rmi -f REFERENCE
    if [ "$verb" = rm ]; then
        file="$state/containers/$2"
    else
        rest=${2#*/}
        file="$state/images/${rest%%:*}.${rest#*:}"
    fi
    if [ ! -s "$file" ]; then
        echo "Error: No such object: $2" >&2
        exit 1
    fi
    : > "$file"
    ;;

run)
    # run --name N --workdir W --label L [--cpus C] [--memory M] IMAGE COMMAND...
    name='' workdir='' label=''
    while [ $# -gt 0 ]; do
        case $1 in
            --name) name=$2; shift 2 ;;
            --workdir) workdir=$2; shift 2 ;;
            --label) label=$2; shift 2 ;;
            --cpus|--memory) shift 2 ;;
            *) break ;;
        esac
    done
    image=$1
    shift
    output='' kernel='' notebook=''
    while [ $# -gt 0 ]; do
        case $1 in
            --output) output=$2; shift 2 ;;
            --ExecutePreprocessor.kernel_name=*) kernel=${1#*=}; shift ;;
            *) notebook=$1; shift ;;
        esac
    done
    rest=${image#*/}
    if [ ! -s "$state/images/${rest%%:*}.${rest#*:}" ]; then
        echo "Unable to find image '$image' locally" >&2
        exit 125
    fi
    printf '%s\n' "$label" > "$state/containers/$name"
    pause "${BENCH_STUB_RUN_DELAY_S:-0}"
    relative=${workdir#/workspace}
    relative=${relative#/}
    source="$executed/${label#*=}/${relative:+$relative/}$notebook"
    echo "[NbConvertApp] Converting notebook $notebook to notebook" >&2
    if [ -e "$source.nokernel" ] && [ -z "$kernel" ]; then
        read -r missing < "$source.nokernel"
        echo "jupyter_client.kernelspec.NoSuchKernel: No such kernel named $missing" >&2
        exit 1
    fi
    if [ ! -e "$source" ]; then
        echo "Traceback (most recent call last):" >&2
        echo "nbformat.reader.NotJSONError: Notebook does not appear to be JSON" >&2
        exit 1
    fi
    printf '%s %s\n' "$workdir/$output" "$source" >> "$state/containers/$name"
    echo "[NbConvertApp] Writing notebook to $output" >&2
    ;;

cp)
    # cp CONTAINER:PATH DESTINATION
    file="$state/containers/${1%%:*}"
    wanted=${1#*:}
    if [ -s "$file" ]; then
        while read -r path source; do
            [ "$path" = "$wanted" ] && exec cp "$source" "$2"
        done < "$file"
    fi
    echo "Error: No such container:path: $1" >&2
    exit 1
    ;;

*)
    echo "stub runtime: unsupported verb '$verb'" >&2
    exit 2
    ;;
esac
